"""Text-overlap metrics computed from first principles.

Implements corpus-level BLEU-1..4 (clipped modified n-gram precision,
geometric mean, brevity penalty), ROUGE-L as the LCS F-measure with
beta = 1.2, and CIDEr as the mean TF-IDF n-gram cosine over n = 1..4
scaled by 10. Every record carries a single reference.

Corpus BLEU aggregates matched and possible n-gram counts over the whole
corpus before taking precisions; it is not a mean of per-report scores.
Per-report BLEU smooths zero-count orders by 1/(2 * candidate length) so
individual scores stay finite for stratified analysis.

Scoring works on token ids, not strings: :func:`evaluate_corpus` maps
every token to an id through one vocabulary per corpus as it tokenizes.
BLEU and CIDEr then run one n-gram order at a time on int gram keys,
counting each candidate and each reference once per order; a
reference's Counter gives both its share of the document frequency and
its TF-IDF vector. ROUGE-L takes the same ids, since an LCS length does
not change under a one-to-one relabeling.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Hashable, Sequence
from itertools import chain, count, repeat
from operator import add, mul
from typing import NamedTuple

from ._io import DataError
from .corpus import CorpusRecord, tokenize

__all__ = [
    "EvaluationError",
    "ReportScores",
    "CorpusScores",
    "MetricReport",
    "bleu",
    "lcs_length",
    "rouge_l",
    "cider",
    "evaluate_corpus",
]

MAX_ORDER = 4
ROUGE_BETA = 1.2
CIDER_SCALE = 10.0


class EvaluationError(DataError):
    """Records cannot be scored (missing fields, empty input)."""


def _brevity_penalty(candidate_length: int, reference_length: int) -> float:
    if candidate_length == 0:
        return 0.0
    if candidate_length < reference_length:
        return math.exp(1.0 - reference_length / candidate_length)
    return 1.0


def bleu(candidates: list[list[str]], references: list[list[str]],
         n: int = 4) -> float:
    """Corpus-level BLEU-n over parallel token lists.

    Precisions use corpus totals; an order with zero matches anywhere in
    the corpus drives the whole score to 0 (no smoothing here).
    """
    if not 1 <= n <= MAX_ORDER:
        raise EvaluationError(f"BLEU order must be in 1..{MAX_ORDER}, got {n}")
    return _score_tokens(candidates, references).corpus_bleu[n - 1]


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit i of ``v`` stands
    for position i of ``b``, and a zero bit marks a column where the DP
    row steps up. Each token of ``a`` updates the whole row with a few
    operations on Python ints, so the cost is O(|a| * ceil(|b| / w))
    word operations for machine words of w bits.
    """
    masks: dict[Hashable, int] = {}
    for i, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << i
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[Hashable], reference: Sequence[Hashable],
            beta: float = ROUGE_BETA) -> float:
    """ROUGE-L F-measure of tokens or token ids. Empty sides score 0."""
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    beta_sq = beta * beta
    return ((1.0 + beta_sq) * precision * recall
            / (recall + beta_sq * precision))


def _cosine(u: list[float], v_at_u: list[float], v: list[float],
            same_keys: bool) -> float:
    """Cosine of sparse vectors given as value lists; 0 for a zero norm.

    ``v_at_u`` holds v's value at each of u's keys (0.0 where v has
    none); ``same_keys`` says whether u and v have one key set. Equal
    vectors score exactly 1.0, where the rounded norms can give
    0.9999999999999998; others are clamped to 1.0, where they can give
    1.0000000000000002 and lift CIDEr above its maximum of 10.
    """
    norm_u = math.sqrt(math.fsum(map(mul, u, u)))
    norm_v = math.sqrt(math.fsum(map(mul, v, v)))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if same_keys and u == v_at_u:
        return 1.0
    dot = math.fsum(map(mul, u, v_at_u))
    return min(dot / (norm_u * norm_v), 1.0)


class _PassScores(NamedTuple):
    pair_bleu: list[tuple[float, float, float, float]]
    pair_cider: list[float]
    corpus_bleu: tuple[float, float, float, float]
    corpus_cider: float


def _intern(tokens: list[str], vocabulary: defaultdict) -> list[int]:
    """``tokens`` as ids; a token new to ``vocabulary`` takes the next id."""
    return list(map(vocabulary.__getitem__, tokens))


def _score_tokens(candidates: list[list[str]],
                  references: list[list[str]]) -> _PassScores:
    """:func:`_score_pairs` on token lists interned through one vocabulary."""
    vocabulary = defaultdict(count().__next__)
    candidate_ids = [_intern(tokens, vocabulary) for tokens in candidates]
    reference_ids = [_intern(tokens, vocabulary) for tokens in references]
    return _score_pairs(candidate_ids, reference_ids, len(vocabulary))


def _next_order_keys(keys: list[list[int]], texts: list[list[int]], n: int,
                     width: int) -> None:
    """Replace each text's order-(n-1) gram keys by its order-n keys.

    A gram's key is its ids read as a number in base ``width``, so the
    key of the n-gram at i is the (n-1)-gram key at i times ``width``
    plus the id at i + n - 1. Each list is replaced in place, so the
    previous order's keys are freed text by text.
    """
    for i, ids in enumerate(texts):
        # map stops when ids[n - 1:] runs out, past the last n-gram.
        keys[i] = list(map(add, map(mul, keys[i], repeat(width)), ids[n - 1:]))


def _score_order(candidate_keys: list[list[int]],
                 reference_keys: list[list[int]],
                 idf_by_df: list[float]) -> tuple[list[int], list[float]]:
    """Each pair's clipped matches and TF-IDF cosine at one n-gram order.

    Each reference's Counter serves both the document frequency, as the
    set of its keys, and the pair's reference vector.
    """
    reference_counts = list(map(Counter, reference_keys))
    document_frequency = Counter(chain.from_iterable(reference_counts))
    idf = dict(zip(document_frequency,
                   map(idf_by_df.__getitem__, document_frequency.values())))
    unseen = idf_by_df[0]
    matches = []
    similarities = []
    for keys, ref in zip(candidate_keys, reference_counts):
        cand = Counter(keys)
        # The reference's count at each candidate gram, 0 if absent.
        ref_at_cand = list(map(ref.get, cand, repeat(0)))
        matches.append(sum(map(min, cand.values(), ref_at_cand)))
        idf_at_cand = list(map(idf.get, cand, repeat(unseen)))
        similarities.append(_cosine(
            list(map(mul, cand.values(), idf_at_cand)),
            list(map(mul, ref_at_cand, idf_at_cand)),
            list(map(mul, ref.values(), map(idf.__getitem__, ref))),
            cand.keys() == ref.keys()))
    return matches, similarities


def _score_pairs(candidates: list[list[int]], references: list[list[int]],
                 width: int) -> _PassScores:
    """Smoothed and corpus BLEU-1..4 plus CIDEr, one n-gram order at a time.

    The texts are token ids below ``width``. Each order counts every
    candidate and every reference once, on int gram keys; only that
    order's keys and Counters are alive. Each pair keeps its clipped
    matches and cosine per order, and the scores are combined after the
    last order in the same order of operations as the recount reference
    in the tests, so they equal it bit for bit.
    """
    if len(candidates) != len(references):
        raise EvaluationError(
            f"got {len(candidates)} candidates but {len(references)} references")
    if not candidates:
        raise EvaluationError("cannot score an empty candidate set")
    log_total = math.log(len(references))
    # Entry df holds log N - log df; entry 0, for grams absent from every
    # reference, holds the df=1 fallback weight log N.
    idf_by_df = [log_total] + [log_total - math.log(df)
                               for df in range(1, len(references) + 1)]
    # Order-1 keys are the ids. The outer lists are copied, since each
    # order replaces their items.
    candidate_keys = list(candidates)
    reference_keys = list(references)
    matched_by_order = []
    similarities_by_order = []
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            _next_order_keys(candidate_keys, candidates, n, width)
            _next_order_keys(reference_keys, references, n, width)
        matches, similarities = _score_order(candidate_keys, reference_keys,
                                             idf_by_df)
        matched_by_order.append(matches)
        similarities_by_order.append(similarities)

    candidate_lengths = list(map(len, candidates))
    pair_bleu = []
    for c, reference, matches in zip(candidate_lengths, references,
                                     zip(*matched_by_order)):
        if not c:
            pair_bleu.append((0.0,) * MAX_ORDER)
            continue
        penalty = _brevity_penalty(c, len(reference))
        log_sum = 0.0
        smoothed = []
        for n, m in enumerate(matches, start=1):
            log_sum += math.log(m / (c - n + 1) if m else 1.0 / (2.0 * c))
            smoothed.append(penalty * math.exp(log_sum / n))
        pair_bleu.append(tuple(smoothed))
    pair_cider = [CIDER_SCALE * math.fsum(similarities) / MAX_ORDER
                  for similarities in zip(*similarities_by_order)]

    matched = list(map(sum, matched_by_order))
    possible = [sum(max(c - n + 1, 0) for c in candidate_lengths)
                for n in range(1, MAX_ORDER + 1)]
    corpus_penalty = _brevity_penalty(sum(candidate_lengths),
                                      sum(map(len, references)))
    corpus_bleu = []
    for n in range(1, MAX_ORDER + 1):
        if 0 in matched[:n]:
            corpus_bleu.append(0.0)
            continue
        log_precision = math.fsum(
            math.log(m / p) for m, p in zip(matched[:n], possible[:n])) / n
        corpus_bleu.append(corpus_penalty * math.exp(log_precision))
    return _PassScores(pair_bleu=pair_bleu, pair_cider=pair_cider,
                       corpus_bleu=tuple(corpus_bleu),
                       corpus_cider=math.fsum(pair_cider) / len(pair_cider))


def cider(candidates: list[list[str]],
          references: list[list[str]]) -> tuple[list[float], float]:
    """CIDEr per pair plus the corpus mean.

    IDF comes from the reference side of the corpus, so a single-document
    corpus has IDF log(1) = 0 everywhere and scores 0 by the zero-norm
    guard rather than erroring.
    """
    scores = _score_tokens(candidates, references)
    return scores.pair_cider, scores.corpus_cider


class ReportScores(NamedTuple):
    id: str
    bleu: tuple[float, float, float, float]
    rouge_l: float
    cider: float
    label: int | None = None
    # Candidate token count, kept for analysis; not serialized.
    candidate_length: int = 0

    def to_dict(self) -> dict:
        row: dict = {"id": self.id}
        for order, value in enumerate(self.bleu, start=1):
            row[f"bleu{order}"] = value
        row["rouge_l"] = self.rouge_l
        row["cider"] = self.cider
        if self.label is not None:
            row["label"] = self.label
        return row


class CorpusScores(NamedTuple):
    bleu: tuple[float, float, float, float]
    rouge_l: float
    cider: float

    def to_dict(self) -> dict:
        row = {f"bleu{order}": value
               for order, value in enumerate(self.bleu, start=1)}
        row["rouge_l"] = self.rouge_l
        row["cider"] = self.cider
        return row


class MetricReport(NamedTuple):
    per_report: list[ReportScores]
    corpus: CorpusScores

    def to_dict(self) -> dict:
        return {"corpus": self.corpus.to_dict(),
                "per_report": [row.to_dict() for row in self.per_report]}


def evaluate_corpus(records: list[CorpusRecord]) -> MetricReport:
    """Score every record's candidate against its reference.

    Raises :class:`EvaluationError` naming the first record that lacks a
    candidate or reference.
    """
    if not records:
        raise EvaluationError("cannot score an empty corpus")
    # Only the id lists are kept, so each text's token strings are freed
    # as soon as it is interned.
    vocabulary = defaultdict(count().__next__)
    candidates = []
    references = []
    for record in records:
        if record.candidate is None:
            raise EvaluationError(f"record {record.id!r} has no candidate")
        if record.reference is None:
            raise EvaluationError(f"record {record.id!r} has no reference")
        candidates.append(_intern(tokenize(record.candidate), vocabulary))
        references.append(_intern(tokenize(record.reference), vocabulary))

    scores = _score_pairs(candidates, references, len(vocabulary))
    per_report = [
        ReportScores(id=record.id, bleu=pair_bleu,
                     rouge_l=rouge_l(candidate, reference), cider=pair_cider,
                     candidate_length=len(candidate))
        for record, candidate, reference, pair_bleu, pair_cider in zip(
            records, candidates, references, scores.pair_bleu,
            scores.pair_cider)
    ]
    corpus = CorpusScores(
        bleu=scores.corpus_bleu,
        rouge_l=math.fsum(row.rouge_l for row in per_report) / len(per_report),
        cider=scores.corpus_cider,
    )
    return MetricReport(per_report=per_report, corpus=corpus)
