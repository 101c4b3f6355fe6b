"""BLEU, ROUGE-L, and CIDEr against hand-computed oracles.

Expected values are derived in place from the metric definitions
(explicit fractions, brute-force LCS, a direct TF-IDF cosine) rather
than from the implementation under test.
"""

import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from radpriors import metrics
from radpriors.corpus import CorpusRecord, load_corpus, tokenize
from radpriors.metrics import (EvaluationError, bleu, cider, cosine,
                               evaluate_corpus, lcs_length, ngram_counts,
                               rouge_l)

FIXTURES = Path(__file__).parent / "fixtures"
VOCAB = ["the", "lung", "is", "clear", "heart", "normal", "effusion", "no"]


def brute_force_lcs(a, b):
    """Longest common subsequence by exhaustive enumeration (short inputs)."""
    best = 0
    for size in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), size):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(token in it for token in sub):
                return size
    return best


def reference_lcs_length(a, b):
    """LCS length by the textbook O(|a| * |b|) dynamic program."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


# Reference n-gram counter and cosine: the slice-per-gram and
# generator-based code that the scoring pass ran before it worked on
# zipped grams and value lists. The references below use only these, so
# the differential tests never run the code they check.

def reference_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_cosine(u, v):
    norm_u = math.sqrt(math.fsum(x * x for x in u.values()))
    norm_v = math.sqrt(math.fsum(x * x for x in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    if u == v:
        return 1.0
    dot = math.fsum(u[gram] * v.get(gram, 0.0) for gram in u)
    return min(dot / (norm_u * norm_v), 1.0)


def oracle_cider_pair(candidate, reference, all_references):
    """TF-IDF n-gram cosine, straight from the metric's definition."""
    total_docs = len(all_references)
    sims = []
    for n in range(1, 5):
        doc_freq = Counter()
        for ref in all_references:
            doc_freq.update(set(reference_ngram_counts(ref, n)))

        def tfidf(tokens):
            counts = reference_ngram_counts(tokens, n)
            length = sum(counts.values())
            vec = {}
            for gram, count in counts.items():
                idf = math.log(total_docs) - math.log(doc_freq.get(gram, 1))
                vec[gram] = (count / length) * idf if length else 0.0
            return vec

        u, v = tfidf(candidate), tfidf(reference)
        dot = sum(u[g] * v[g] for g in u if g in v)
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        sims.append(dot / (nu * nv) if nu > 0 and nv > 0 else 0.0)
    return 10.0 * sum(sims) / 4


# Reference scorer: the recount-based BLEU and CIDEr that evaluate_corpus
# used before it scored each pair in one pass. Every order is recounted
# for every score; the shared pass must reproduce these values exactly.

def reference_clipped_matches(candidate, reference, n):
    possible = max(len(candidate) - n + 1, 0)
    if possible == 0:
        return 0, 0
    cand = reference_ngram_counts(candidate, n)
    ref = reference_ngram_counts(reference, n)
    matched = sum(min(count, ref[gram]) for gram, count in cand.items())
    return matched, possible


def reference_brevity_penalty(candidate_length, reference_length):
    if candidate_length == 0:
        return 0.0
    if candidate_length < reference_length:
        return math.exp(1.0 - reference_length / candidate_length)
    return 1.0


def reference_bleu(candidates, references, n):
    matched = [0] * n
    possible = [0] * n
    candidate_length = 0
    reference_length = 0
    for candidate, reference in zip(candidates, references):
        candidate_length += len(candidate)
        reference_length += len(reference)
        for order in range(1, n + 1):
            m, p = reference_clipped_matches(candidate, reference, order)
            matched[order - 1] += m
            possible[order - 1] += p
    if any(m == 0 or p == 0 for m, p in zip(matched, possible)):
        return 0.0
    log_precision = math.fsum(
        math.log(m / p) for m, p in zip(matched, possible)) / n
    return reference_brevity_penalty(candidate_length, reference_length) \
        * math.exp(log_precision)


def reference_smoothed_bleu(candidate, reference, n):
    c = len(candidate)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for order in range(1, n + 1):
        m, p = reference_clipped_matches(candidate, reference, order)
        precision = m / p if m > 0 and p > 0 else 1.0 / (2.0 * c)
        log_sum += math.log(precision)
    return reference_brevity_penalty(c, len(reference)) \
        * math.exp(log_sum / n)


def reference_cider(candidates, references):
    log_total = math.log(len(references))
    idf_by_order = []
    for n in range(1, 5):
        document_frequency = Counter()
        for reference in references:
            document_frequency.update(
                set(reference_ngram_counts(reference, n)))
        idf_by_order.append({gram: log_total - math.log(df)
                             for gram, df in document_frequency.items()})

    def tfidf(tokens, n):
        idf = idf_by_order[n - 1]
        return {gram: count * idf.get(gram, log_total)
                for gram, count in reference_ngram_counts(tokens, n).items()}

    scores = []
    for candidate, reference in zip(candidates, references):
        per_order = [reference_cosine(tfidf(candidate, n),
                                      tfidf(reference, n))
                     for n in range(1, 5)]
        scores.append(10.0 * math.fsum(per_order) / 4)
    return scores, math.fsum(scores) / len(scores)


# A four-word vocabulary makes repeated n-grams common.
PAIR_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12)
PAIRS = st.lists(st.tuples(PAIR_TOKENS, PAIR_TOKENS), min_size=1, max_size=6)
# Fifty words and longer texts make most grams unique, as in reports, and
# the scorer's int gram keys run to many digits.
WIDE_TOKENS = st.lists(st.sampled_from([f"w{i}" for i in range(50)]),
                       max_size=80)
WIDE_PAIRS = st.lists(st.tuples(WIDE_TOKENS, WIDE_TOKENS), min_size=1,
                      max_size=6)


def _lcs_side(vocab):
    # Drawing the length first spreads sizes evenly up to 150, so the bit
    # vectors often span two or three 64-bit words.
    return st.integers(0, 150).flatmap(
        lambda n: st.lists(st.sampled_from(vocab), min_size=n, max_size=n))


# Vocabularies of one to four words, so matches repeat.
LCS_PAIRS = st.integers(1, 4).flatmap(
    lambda k: st.tuples(_lcs_side("abcd"[:k]), _lcs_side("abcd"[:k])))


class TestLcsEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(LCS_PAIRS)
    @example(([], []))
    @example(([], ["a"]))
    @example((["a"], []))
    @example((["a"], ["a"]))
    @example((["a"], ["b"]))
    @example((["a"] * 65, ["a"] * 64))
    @example((list("ab" * 40), list("ba" * 70)))
    @example((list("abcd" * 33), list("dcba" * 33)))
    def test_bit_parallel_equals_dynamic_program(self, pair):
        a, b = pair
        assert lcs_length(a, b) == reference_lcs_length(a, b)
        assert lcs_length(a, b) == lcs_length(b, a)


def assert_equals_recount_reference(pairs):
    records = [CorpusRecord(id=f"r{i}", text="x",
                            candidate=" ".join(candidate),
                            reference=" ".join(reference))
               for i, (candidate, reference) in enumerate(pairs)]
    candidates = [candidate for candidate, _ in pairs]
    references = [reference for _, reference in pairs]
    report = evaluate_corpus(records)
    want_cider, want_mean = reference_cider(candidates, references)
    for row, candidate, reference, cider_score in zip(
            report.per_report, candidates, references, want_cider):
        assert row.bleu == tuple(
            reference_smoothed_bleu(candidate, reference, n)
            for n in range(1, 5))
        assert row.cider == cider_score
    assert report.corpus.bleu == tuple(
        reference_bleu(candidates, references, n) for n in range(1, 5))
    assert report.corpus.cider == want_mean


class TestSharedPassMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(PAIRS, WIDE_PAIRS))
    # No tokens at all: an empty vocabulary.
    @example([([], []), ([], [])])
    # A one-word vocabulary: every gram of an order has the same key.
    @example([(["a", "a", "a"], ["a", "a", "a", "a", "a"]),
              (["a"] * 6, ["a"])])
    @example([([f"w{i % 7}" for i in range(30)],
               [f"w{i % 5}" for i in range(40)])])
    @example([([], ["a", "b"]), (["a"], ["a"])])
    @example([(["a"], ["a", "b"]), (["b"], ["b", "a"])])
    @example([(["a", "b", "a", "b"], ["a", "b", "a", "b", "a"])])
    @example([(["a", "a", "a", "a"], ["a", "a"]), (["b", "b"], ["b"]),
              (["c", "d", "c", "d", "c"], ["d", "c", "d"])])
    @example([([], []), ([], ["a"])])
    # One pair: IDF is log(1) - log(1) = 0 for every gram.
    @example([(["a", "b", "a"], ["a", "b", "c"])])
    # "a" is in every reference, so its weight is 0 on both sides and the
    # first pair's unigram vectors are equal although the counts differ.
    @example([(["a", "a", "b"], ["a", "b"]), (["c"], ["a", "c"])])
    def test_evaluate_corpus_equals_recount_reference(self, pairs):
        assert_equals_recount_reference(pairs)

    def test_keys_past_two_to_the_64_equal_recount_reference(self):
        # 70000 distinct tokens: a 4-gram key, four ids read as a number
        # in base 70000, passes 2**64.
        words = [f"w{i}" for i in range(70000)]
        pairs = []
        for start in (0, 35000):
            reference = words[start:start + 17500]
            # Shared head and tail, with fresh words between them.
            candidate = reference[:2000] + words[start + 17500:start + 35000] \
                + reference[-2000:]
            pairs.append((candidate, reference))
        assert_equals_recount_reference(pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(PAIRS, WIDE_PAIRS))
    def test_token_list_wrappers_equal_evaluate_corpus(self, pairs):
        records = [CorpusRecord(id=f"r{i}", text="x",
                                candidate=" ".join(candidate),
                                reference=" ".join(reference))
                   for i, (candidate, reference) in enumerate(pairs)]
        candidates = [candidate for candidate, _ in pairs]
        references = [reference for _, reference in pairs]
        report = evaluate_corpus(records)
        assert tuple(bleu(candidates, references, n) for n in range(1, 5)) \
            == report.corpus.bleu
        assert cider(candidates, references) == (
            [row.cider for row in report.per_report], report.corpus.cider)


# Finite floats from subnormal to large, so squares and dot products
# neither overflow nor turn NaN; four keys make shared keys common.
VECTOR_VALUES = st.floats(min_value=-1e100, max_value=1e100)
VECTORS = st.dictionaries(st.sampled_from("abcd"), VECTOR_VALUES, max_size=4)


class TestCosineEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(VECTORS, VECTORS)
    @example({}, {})
    @example({"a": 1.0}, {})
    @example({"a": 1.0, "b": -2.0}, {"a": 1.0, "b": -2.0})
    @example({"a": 0.0, "b": 1.0}, {"b": 1.0, "c": 0.0})
    @example({"a": 1.0, "b": 2.0}, {"c": 3.0, "d": 4.0})
    @example({"a": -1.0, "b": 2.0}, {"a": 3.0, "c": 4.0})
    @example({"a": 0.0}, {"a": -0.0})
    def test_cosine_equals_reference(self, u, v):
        assert cosine(u, v) == reference_cosine(u, v)
        assert cosine(u, dict(u)) == reference_cosine(u, dict(u))


class TestNgramCountsEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=12), st.integers(1, 5))
    @example([], 1)
    @example(["a"], 2)
    @example(["a", "b", "c", "a"], 5)
    def test_zipped_grams_equal_sliced_grams(self, tokens, n):
        got = ngram_counts(tokens, n)
        want = reference_ngram_counts(tokens, n)
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_is_an_error(self, n):
        with pytest.raises(EvaluationError,
                           match=f"n-gram order must be at least 1, got {n}"):
            ngram_counts(["a", "b", "c"], n)


class TestBleu:
    def test_identity_is_one_for_all_orders(self):
        tokens = "the heart is normal in size".split()
        for n in (1, 2, 3, 4):
            assert bleu([tokens], [tokens], n=n) == 1.0

    def test_clipped_unigram_precision(self):
        candidate = ["the"] * 7
        reference = ["the", "cat", "is", "on", "the", "mat"]
        assert bleu([candidate], [reference], n=1) == pytest.approx(2 / 7,
                                                                    abs=1e-12)

    def test_brevity_penalty(self):
        candidate = ["no", "acute", "disease"]
        reference = ["no", "acute", "disease", "seen"]
        expected = math.exp(1 - 4 / 3)
        assert bleu([candidate], [reference], n=3) == pytest.approx(expected,
                                                                    abs=1e-12)

    def test_zero_count_order_scores_zero(self):
        # One-token candidates admit no bigrams at all.
        assert bleu([["clear"]], [["clear"]], n=2) == 0.0

    def test_no_overlap_scores_zero(self):
        assert bleu([["a", "b"]], [["c", "d"]], n=1) == 0.0

    def test_empty_candidate_set_is_an_error(self):
        with pytest.raises(EvaluationError):
            bleu([], [], n=4)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(EvaluationError):
            bleu([["a"]], [["a"], ["b"]], n=4)

    def test_order_out_of_range_is_an_error(self):
        for n in (0, 5):
            with pytest.raises(EvaluationError):
                bleu([["a"]], [["a"]], n=n)

    def test_corpus_level_counting_differs_from_mean_of_pairs(self):
        # Corpus BLEU pools counts; averaging per-pair scores differs.
        candidates = [["the", "heart"], ["x", "y", "z"]]
        references = [["the", "heart"], ["x", "q", "z"]]
        pooled = bleu(candidates, references, n=1)
        mean_of_pairs = (bleu([candidates[0]], [references[0]], n=1)
                         + bleu([candidates[1]], [references[1]], n=1)) / 2
        assert pooled == pytest.approx(4 / 5, abs=1e-12)
        assert pooled != mean_of_pairs


class TestRougeL:
    def test_identity(self):
        tokens = "no acute disease".split()
        assert rouge_l(tokens, tokens) == 1.0

    def test_transposed_middle_pair(self):
        candidate = ["a", "b", "c", "d"]
        reference = ["a", "c", "b", "d"]
        assert rouge_l(candidate, reference) == pytest.approx(0.75, abs=1e-12)
        assert rouge_l(reference, candidate) == pytest.approx(0.75, abs=1e-12)

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l(["a"], []) == 0.0
        assert rouge_l([], []) == 0.0

    def test_asymmetric_when_lengths_differ(self):
        candidate = ["a", "b"]
        reference = ["a", "b", "c", "d"]
        beta_sq = 1.2 * 1.2
        forward = ((1 + beta_sq) * 1.0 * 0.5) / (0.5 + beta_sq * 1.0)
        backward = ((1 + beta_sq) * 0.5 * 1.0) / (1.0 + beta_sq * 0.5)
        assert rouge_l(candidate, reference) == pytest.approx(forward,
                                                              abs=1e-12)
        assert rouge_l(reference, candidate) == pytest.approx(backward,
                                                              abs=1e-12)
        assert rouge_l(candidate, reference) != rouge_l(reference, candidate)

    def test_lcs_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(200):
            a = [rng.choice(VOCAB) for _ in range(rng.randint(0, 7))]
            b = [rng.choice(VOCAB) for _ in range(rng.randint(0, 7))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)


class TestCider:
    def test_identity_on_two_distinct_documents(self):
        doc_a = "the heart is quite normal".split()
        doc_b = "lungs remain entirely clear bilaterally".split()
        scores, mean = cider([doc_a, doc_b], [doc_a, doc_b])
        assert scores == [10.0, 10.0]
        assert mean == 10.0

    def test_no_shared_ngrams_scores_zero(self):
        # Second pair only pads the reference corpus past one document.
        scores, _ = cider([["a", "b", "c"], ["q", "r"]],
                          [["x", "y", "z"], ["q", "r"]])
        assert scores[0] == 0.0

    def test_parallel_vectors_score_exactly_one(self):
        # Unclamped, the rounded norms give 1.0000000000000002 here.
        u = {"a": 1.0, "b": 1.0, "c": 1.0}
        assert cosine(u, dict(u)) == 1.0

    def test_identical_pair_never_exceeds_ten(self):
        docs = [["clear"], ["the", "heart", "the", "heart"]]
        scores, _ = cider(docs, docs)
        assert scores[1] == 10.0

    def test_identical_pair_is_never_below_ten(self):
        # Dividing by the rounded norms read 9.999999999999998 here.
        report = ("Nonspecific small nodule soft tissues are unremarkable "
                  "density projects over the left hilum. Minimal "
                  "subsegmental atelectasis the enteric tube courses below "
                  "the diaphragm. The costophrenic angles are sharp there is "
                  "mild patchy opacity. Skin folds project over the right "
                  "chest old healed rib fractures.")
        docs = [tokenize(report), tokenize("there is mild patchy opacity")]
        scores, _ = cider(docs, docs)
        assert scores[0] == 10.0

    def test_single_document_corpus_is_zero_without_error(self):
        tokens = "the heart is normal".split()
        scores, mean = cider([tokens], [tokens])
        assert scores == [0.0]
        assert mean == 0.0

    def test_matches_direct_tfidf_oracle(self):
        candidates = [
            "there is a small pleural effusion".split(),
            "lungs are clear".split(),
            "the heart is enlarged".split(),
        ]
        references = [
            "there is no pleural effusion".split(),
            "the lungs are clear and expanded".split(),
            "the heart is mildly enlarged".split(),
        ]
        scores, _ = cider(candidates, references)
        for got, cand, ref in zip(scores, candidates, references):
            want = oracle_cider_pair(cand, ref, references)
            assert got == pytest.approx(want, abs=1e-9)


class TestEvaluateCorpus:
    def test_single_identical_record(self):
        records = load_corpus(FIXTURES / "eval3.jsonl")[:1]
        report = evaluate_corpus(records)
        row = report.per_report[0]
        assert row.bleu == (1.0, 1.0, 1.0, 1.0)
        assert row.rouge_l == 1.0
        assert row.cider == 0.0  # single-document IDF guard

    def test_rouge_l_calls_lcs_length_once_per_pair(self, monkeypatch):
        # The benchmark counts LCS input size by wrapping this module
        # global, so rouge_l must keep calling it.
        calls = []
        real = metrics.lcs_length

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(metrics, "lcs_length", counting)
        records = load_corpus(FIXTURES / "eval3.jsonl")
        evaluate_corpus(records)
        texts = [(tokenize(record.candidate), tokenize(record.reference))
                 for record in records]
        assert [tuple(map(len, call)) for call in calls] == \
            [tuple(map(len, pair)) for pair in texts]
        # The calls take ids that relabel the tokens one-to-one across
        # the whole corpus, which leaves every LCS length unchanged.
        tokens = [token for pair in texts for side in pair for token in side]
        ids = [i for call in calls for side in call for i in side]
        assert len(set(zip(tokens, ids))) == len(set(tokens)) == len(set(ids))

    def test_pass_counts_each_text_once_per_order(self, monkeypatch):
        # Per order: a Counter per reference, then the document frequency
        # over those Counters' keys, so no reference is counted again,
        # then a Counter per candidate.
        calls = []
        real = metrics.Counter

        def counting(iterable=()):
            items = list(iterable)
            calls.append(items)
            return real(items)

        monkeypatch.setattr(metrics, "Counter", counting)
        # References repeat grams, so a recount would differ from sets.
        records = [
            CorpusRecord(id="r1", text="x", candidate="no effusion",
                         reference="no effusion no effusion no change"),
            CorpusRecord(id="r2", text="x", candidate="the heart is normal",
                         reference="the heart is normal the heart is"),
            CorpusRecord(id="r3", text="x", candidate="lungs are clear",
                         reference="clear")]
        evaluate_corpus(records)
        candidates = [tokenize(record.candidate) for record in records]
        references = [tokenize(record.reference) for record in records]
        per_order = 2 * len(records) + 1
        assert len(calls) == 4 * per_order
        for n in range(1, 5):
            block = calls[(n - 1) * per_order:n * per_order]
            texts = [[tuple(text[i:i + n]) for i in range(len(text) - n + 1)]
                     for text in references + candidates]
            document_frequency = block.pop(len(records))
            # Each text's Counter gets one key per gram, and the keys
            # relabel the grams one-to-one.
            assert list(map(len, block)) == list(map(len, texts))
            relabel = set(zip(itertools.chain(*block),
                              itertools.chain(*texts)))
            assert len(relabel) == len({key for key, _ in relabel}) \
                == len({gram for _, gram in relabel})
            # The document frequency reads each reference's distinct grams.
            to_gram = dict(relabel)
            assert [to_gram[key] for key in document_frequency] == \
                [gram for text in texts[:len(records)]
                 for gram in dict.fromkeys(text)]

    def test_candidate_length_is_kept_but_not_serialized(self):
        records = load_corpus(FIXTURES / "eval3.jsonl")
        report = evaluate_corpus(records)
        assert [row.candidate_length for row in report.per_report] == [5, 6, 3]
        assert all("candidate_length" not in row.to_dict()
                   for row in report.per_report)

    def test_three_record_fixture_oracle_values(self):
        """Frozen hand-derived fractions for the bundled 3-record fixture."""
        records = load_corpus(FIXTURES / "eval3.jsonl")
        report = evaluate_corpus(records)
        by_id = {row.id: row for row in report.per_report}

        e1 = by_id["e1"]
        assert e1.bleu == (1.0, 1.0, 1.0, 1.0)
        assert e1.rouge_l == 1.0

        # e2: 6-token candidate vs 5-token reference, overlap
        # {there, is, pleural, effusion}; trigram/4-gram counts are zero
        # so smoothing substitutes 1/(2*6).
        e2 = by_id["e2"]
        smooth = 1 / 12
        assert e2.bleu[0] == pytest.approx(2 / 3, abs=1e-9)
        assert e2.bleu[1] == pytest.approx(math.sqrt(2 / 3 * 2 / 5), abs=1e-9)
        assert e2.bleu[2] == pytest.approx((2 / 3 * 2 / 5 * smooth) ** (1 / 3),
                                           abs=1e-9)
        assert e2.bleu[3] == pytest.approx(
            (2 / 3 * 2 / 5 * smooth * smooth) ** (1 / 4), abs=1e-9)
        lcs = 4  # "there is ... pleural effusion"
        p, r = lcs / 6, lcs / 5
        beta_sq = 1.44
        assert e2.rouge_l == pytest.approx(
            ((1 + beta_sq) * p * r) / (r + beta_sq * p), abs=1e-9)

        # e3: 3-token candidate inside a 6-token reference; perfect
        # precisions up to trigrams, brevity penalty exp(1 - 6/3).
        e3 = by_id["e3"]
        bp = math.exp(1 - 6 / 3)
        assert e3.bleu[0] == pytest.approx(bp, abs=1e-9)
        assert e3.bleu[2] == pytest.approx(bp, abs=1e-9)
        assert e3.bleu[3] == pytest.approx(bp * (1 / 6) ** (1 / 4), abs=1e-9)

        # CIDEr against the independent TF-IDF oracle.
        refs = [r.reference.split() for r in records]
        for record in records:
            want = oracle_cider_pair(record.candidate.split(),
                                     record.reference.split(), refs)
            assert by_id[record.id].cider == pytest.approx(want, abs=1e-9)

    def test_corpus_bleu_not_mean_of_rows(self):
        records = load_corpus(FIXTURES / "eval3.jsonl")
        report = evaluate_corpus(records)
        mean_b4 = sum(r.bleu[3] for r in report.per_report) / 3
        assert report.corpus.bleu[3] != mean_b4

    def test_missing_candidate_names_first_offending_id(self):
        records = load_corpus(FIXTURES / "golden4.jsonl")
        with pytest.raises(EvaluationError, match="t1"):
            evaluate_corpus(records)

    def test_bounds(self):
        records = load_corpus(FIXTURES / "eval3.jsonl")
        report = evaluate_corpus(records)
        for row in report.per_report:
            for value in row.bleu:
                assert 0.0 <= value <= 1.0
            assert 0.0 <= row.rouge_l <= 1.0
            assert row.cider >= 0.0


class TestMetricProperties:
    def test_permutation_invariance_of_corpus_order(self):
        rng = random.Random(11)
        for _ in range(200):
            size = rng.randint(2, 6)
            candidates = [[rng.choice(VOCAB)
                           for _ in range(rng.randint(1, 8))]
                          for _ in range(size)]
            references = [[rng.choice(VOCAB)
                           for _ in range(rng.randint(1, 8))]
                          for _ in range(size)]
            order = list(range(size))
            rng.shuffle(order)
            shuffled_c = [candidates[i] for i in order]
            shuffled_r = [references[i] for i in order]
            for n in (1, 4):
                assert bleu(candidates, references, n=n) == \
                    bleu(shuffled_c, shuffled_r, n=n)
            _, mean = cider(candidates, references)
            _, shuffled_mean = cider(shuffled_c, shuffled_r)
            assert mean == pytest.approx(shuffled_mean, abs=1e-12)

    def test_lcs_append_monotone(self):
        rng = random.Random(13)
        for _ in range(200):
            a = [rng.choice(VOCAB) for _ in range(rng.randint(0, 7))]
            b = [rng.choice(VOCAB) for _ in range(rng.randint(0, 7))]
            extra = rng.choice(VOCAB)
            base = lcs_length(a, b)
            assert lcs_length(a + [extra], b + [extra]) >= base

    def test_cosine_scale_invariance(self):
        from radpriors.metrics import cosine
        rng = random.Random(17)
        for _ in range(200):
            keys = [("g", i) for i in range(rng.randint(1, 6))]
            u = {k: rng.uniform(0.01, 2.0) for k in keys if rng.random() < 0.8}
            v = {k: rng.uniform(0.01, 2.0) for k in keys if rng.random() < 0.8}
            if not u or not v:
                continue
            scale = rng.uniform(0.1, 50.0)
            su = {k: scale * x for k, x in u.items()}
            sv = {k: scale * x for k, x in v.items()}
            assert cosine(su, sv) == pytest.approx(cosine(u, v), rel=1e-12)

    def test_ngram_counts_window(self):
        tokens = ["a", "b", "a", "b"]
        assert ngram_counts(tokens, 2) == {("a", "b"): 2, ("b", "a"): 1}
        assert ngram_counts(tokens, 5) == {}
