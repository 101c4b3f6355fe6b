"""Text-overlap metrics computed from first principles.

Implements corpus-level BLEU-1..4 (clipped modified n-gram precision,
geometric mean, brevity penalty), ROUGE-L as the LCS F-measure with
beta = 1.2, and CIDEr as the mean TF-IDF n-gram cosine over n = 1..4
scaled by 10. Every record carries a single reference.

Corpus BLEU aggregates matched and possible n-gram counts over the whole
corpus before taking precisions; it is not a mean of per-report scores.
Per-report BLEU smooths zero-count orders by 1/(2 * candidate length) so
individual scores stay finite for stratified analysis.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import mul
from typing import NamedTuple

from ._io import DataError
from .corpus import CorpusRecord, tokenize

__all__ = [
    "EvaluationError",
    "ReportScores",
    "CorpusScores",
    "MetricReport",
    "ngram_counts",
    "bleu",
    "lcs_length",
    "rouge_l",
    "cider",
    "cosine",
    "evaluate_corpus",
]

MAX_ORDER = 4
ROUGE_BETA = 1.2
CIDER_SCALE = 10.0


class EvaluationError(DataError):
    """Records cannot be scored (missing fields, empty input)."""


def _ngrams(tokens: list[str], n: int):
    # Zipping n shifted copies yields each window as a tuple, in order.
    return zip(*[tokens[i:] for i in range(n)])


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Count the n-grams (n >= 1) of a token list as a multiset."""
    if n < 1:
        raise EvaluationError(f"n-gram order must be at least 1, got {n}")
    return Counter(_ngrams(tokens, n))


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
    return _score_pairs(candidates, references).corpus_bleu[n - 1]


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit i of ``v`` stands
    for position i of ``b``, and a zero bit marks a column where the DP
    row steps up. Each token of ``a`` updates the whole row with a few
    operations on Python ints, so the cost is O(|a| * ceil(|b| / w))
    word operations for machine words of w bits.
    """
    masks: dict[str, int] = {}
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


def rouge_l(candidate: list[str], reference: list[str],
            beta: float = ROUGE_BETA) -> float:
    """ROUGE-L F-measure. Empty candidate or reference scores 0."""
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


def cosine(u: dict, v: dict) -> float:
    """Cosine similarity of sparse vectors; 0 when either norm is 0.

    Equal vectors score exactly 1.0: dividing by the rounded norms can
    read 0.9999999999999998 for them. Other vectors are clamped to 1.0,
    since the rounded norms can make parallel vectors read
    1.0000000000000002, which would lift CIDEr above its maximum of 10.
    """
    return _cosine(list(u.values()), list(map(v.get, u, repeat(0.0))),
                   list(v.values()), u.keys() == v.keys())


def _cosine(u: list[float], v_at_u: list[float], v: list[float],
            same_keys: bool) -> float:
    """:func:`cosine` of vectors given as value lists.

    ``v_at_u`` holds v's value at each of u's keys (0.0 where v has
    none); ``same_keys`` says whether u and v have one key set.
    """
    norm_u = math.sqrt(math.fsum(map(mul, u, u)))
    norm_v = math.sqrt(math.fsum(map(mul, v, v)))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if same_keys and u == v_at_u:
        return 1.0
    dot = math.fsum(map(mul, u, v_at_u))
    return min(dot / (norm_u * norm_v), 1.0)


def _reference_idf(references: list[list[str]], n: int) -> dict:
    """log(N / df) per n-gram, df clamped to 1 for unseen grams."""
    total = len(references)
    document_frequency: Counter = Counter()
    for reference in references:
        document_frequency.update(set(_ngrams(reference, n)))
    log_total = math.log(total)
    return {gram: log_total - math.log(df)
            for gram, df in document_frequency.items()}


class _PassScores(NamedTuple):
    pair_bleu: list[tuple[float, float, float, float]]
    pair_cider: list[float]
    corpus_bleu: tuple[float, float, float, float]
    corpus_cider: float


def _score_pairs(candidates: list[list[str]],
                 references: list[list[str]]) -> _PassScores:
    """Smoothed and corpus BLEU-1..4 plus CIDEr in one pass over the pairs.

    Each pair's n-grams are counted once per order on each side, and
    every score derives from those Counters. They are dropped before the
    next pair, so memory holds one pair's Counters plus the IDF tables.
    """
    if len(candidates) != len(references):
        raise EvaluationError(
            f"got {len(candidates)} candidates but {len(references)} references")
    if not candidates:
        raise EvaluationError("cannot score an empty candidate set")
    log_total = math.log(len(references))
    idf_by_order = [_reference_idf(references, n)
                    for n in range(1, MAX_ORDER + 1)]
    matched = [0] * MAX_ORDER
    possible = [0] * MAX_ORDER
    candidate_length = 0
    reference_length = 0
    pair_bleu = []
    pair_cider = []
    for candidate, reference in zip(candidates, references):
        c = len(candidate)
        candidate_length += c
        reference_length += len(reference)
        penalty = _brevity_penalty(c, len(reference))
        log_sum = 0.0
        smoothed = []
        similarities = []
        for n, idf in enumerate(idf_by_order, start=1):
            cand = ngram_counts(candidate, n)
            ref = ngram_counts(reference, n)
            # The reference's count at each candidate gram, 0 if absent.
            ref_at_cand = list(map(ref.get, cand, repeat(0)))
            m = sum(map(min, cand.values(), ref_at_cand))
            p = max(c - n + 1, 0)
            matched[n - 1] += m
            possible[n - 1] += p
            if c:
                log_sum += math.log(m / p if m else 1.0 / (2.0 * c))
                smoothed.append(penalty * math.exp(log_sum / n))
            else:
                smoothed.append(0.0)
            # TF-IDF weights; grams absent from every reference get the
            # df=1 fallback weight log(N).
            idf_at_cand = list(map(idf.get, cand, repeat(log_total)))
            similarities.append(_cosine(
                list(map(mul, cand.values(), idf_at_cand)),
                list(map(mul, ref_at_cand, idf_at_cand)),
                list(map(mul, ref.values(),
                         map(idf.get, ref, repeat(log_total)))),
                cand.keys() == ref.keys()))
        pair_bleu.append(tuple(smoothed))
        pair_cider.append(CIDER_SCALE * math.fsum(similarities) / MAX_ORDER)

    corpus_penalty = _brevity_penalty(candidate_length, reference_length)
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
    scores = _score_pairs(candidates, references)
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
    candidates = []
    references = []
    for record in records:
        if record.candidate is None:
            raise EvaluationError(f"record {record.id!r} has no candidate")
        if record.reference is None:
            raise EvaluationError(f"record {record.id!r} has no reference")
        candidates.append(tokenize(record.candidate))
        references.append(tokenize(record.reference))

    scores = _score_pairs(candidates, references)
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
