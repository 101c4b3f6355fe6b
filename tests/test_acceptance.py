"""Release acceptance checks.

Each test prints one ``[acceptance]`` line so a full run doubles as a
checklist. Failures still raise normally; the line then reads FAIL.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import cosine
from radpriors.analysis import pipeline_label_then_eval
from radpriors.corpus import load_corpus, make_report, tokenize
from radpriors.infusion import (
    ToyModel,
    demo_image_pair,
    forward,
    grad_check,
    infuse,
)
from radpriors.labeler import label_corpus, label_report
from radpriors.metrics import bleu, cider, evaluate_corpus, lcs_length, \
    rouge_l
from radpriors.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures"
IU_XRAY_ENV = "RADPRIORS_IU_XRAY"


@contextmanager
def check(capsys, number, description, budget=None):
    """Time a criterion body and print its PASS/FAIL line regardless."""
    status = "FAIL"
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
        status = "PASS"
    finally:
        with capsys.disabled():
            print(f"[acceptance] {number:02d} {description}: {status}")


class TestAcceptance:
    def test_01_golden_labels_and_spans(self, capsys):
        """Four golden reports label 1,1,0,1 with exact evidence phrases."""
        with check(capsys, 1, "golden report labels and evidence spans", 1.0):
            records = load_corpus(FIXTURES / "golden4.jsonl")
            labels, _ = label_corpus(records, default_rules())
            assert [lab.value for lab in labels] == [1, 1, 0, 1]
            recovered = []
            for record, lab in zip(records, labels):
                report = make_report(record.id, record.text)
                for item in lab.evidence:
                    tokens = report.tokens[item.mention.sentence_index]
                    start, end = item.match_span
                    recovered.append((record.id, " ".join(tokens[start:end])))
            assert recovered == [
                ("t1", "compared to prior examination"),
                ("t2", "again noted"),
                ("t4", "in the interval"),
            ]

    def test_02_negated_comparison_stays_negative(self, capsys):
        with check(capsys, 2, "negated comparison stays negative", 1.0):
            rules = default_rules()
            negated = label_report(make_report(
                "n", "Comparison was made with no comparison studies "
                     "available."), rules)
            confirmed = label_report(make_report(
                "p", "Comparison is made with prior study."), rules)
            assert negated.value == 0
            assert negated.evidence == ()
            assert confirmed.value == 1

    def test_03_synthetic_corpus_full_agreement(self, capsys):
        with check(capsys, 3, "synthetic corpus full agreement", 1.0):
            rules = default_rules()
            records = load_corpus(FIXTURES / "synthetic50.jsonl")
            labels, _ = label_corpus(records, rules)
            disagreements = [record.id for record, lab in zip(records, labels)
                             if lab.value != record.gold_label]
            assert disagreements == []
            for text in ("Heart size is unchanged from prior.",
                         "A small nodule is present on the previous exam.",
                         "Patchy opacity is again noted."):
                assert label_report(make_report("q", text), rules).value == 1

    def test_04_reference_corpus_counts(self, capsys):
        """Label distribution of the IU X-ray findings corpus, if supplied."""
        path = os.environ.get(IU_XRAY_ENV)
        if not path:
            with capsys.disabled():
                print(f"[acceptance] 04 reference corpus label counts: SKIP "
                      f"(set {IU_XRAY_ENV} to a findings corpus to enable)")
            pytest.skip(f"{IU_XRAY_ENV} is not set")
        with check(capsys, 4, "reference corpus label counts"):
            records = load_corpus(path)
            _, counts = label_corpus(records, default_rules(),
                                     text_source="reference")
            assert counts.total == 3955
            assert abs(counts.positive - 529) <= 0.1 * 529

    def test_05_metric_oracles(self, capsys):
        with check(capsys, 5, "metric oracles", 1.0):
            identity = [tokenize("the heart is normal in size")]
            assert all(bleu(identity, identity, n) == 1.0
                       for n in (1, 2, 3, 4))
            assert rouge_l(identity[0], identity[0]) == 1.0

            clipped = bleu([["the"] * 7],
                           [["the", "cat", "is", "on", "the", "mat"]], 1)
            assert abs(clipped - 2 / 7) < 1e-9

            short = bleu([["a", "b", "c"]], [["a", "b", "c", "d"]], 1)
            assert abs(short - math.exp(1 - 4 / 3)) < 1e-9

            crossed = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
            assert abs(crossed - 0.75) < 1e-9

            disjoint = [["a", "b", "c", "d"], ["e", "f", "g", "h", "e"]]
            scores, _ = cider(disjoint, disjoint)
            assert all(score == 10.0 for score in scores)

            single_scores, single_mean = cider([["x", "y"]], [["x", "y"]])
            assert single_scores == [0.0]
            assert single_mean == 0.0

            report = evaluate_corpus(load_corpus(FIXTURES / "eval3.jsonl"))
            e1, e2, e3 = report.per_report
            assert e1.bleu == (1.0, 1.0, 1.0, 1.0)
            assert e1.rouge_l == 1.0
            assert e1.cider == 10.0
            expected_e2 = (2 / 3,
                           math.sqrt(2 / 3 * 2 / 5),
                           (2 / 3 * 2 / 5 * 1 / 12) ** (1 / 3),
                           (2 / 3 * 2 / 5 * 1 / 12 * 1 / 12) ** (1 / 4))
            for got, want in zip(e2.bleu, expected_e2):
                assert abs(got - want) < 1e-9
            precision, recall, beta_sq = 4 / 6, 4 / 5, 1.2 ** 2
            f_measure = ((1 + beta_sq) * precision * recall
                         / (recall + beta_sq * precision))
            assert abs(e2.rouge_l - f_measure) < 1e-9
            assert abs(e2.cider - 2.6373829865128777) < 1e-9
            penalty = math.exp(1 - 6 / 3)
            expected_e3 = (penalty, penalty, penalty,
                           penalty * (1 / 6) ** (1 / 4))
            for got, want in zip(e3.bleu, expected_e3):
                assert abs(got - want) < 1e-9
            assert abs(e3.cider - 4.741779991582797) < 1e-9

    def test_06_randomized_metric_properties(self, capsys):
        with check(capsys, 6, "randomized metric properties", 30.0):
            rng = random.Random(6)
            vocab = ["a", "b", "c", "d", "e", "f", "g"]

            def random_corpus():
                size = rng.randint(2, 6)
                cands = [[rng.choice(vocab)
                          for _ in range(rng.randint(1, 10))]
                         for _ in range(size)]
                refs = [[rng.choice(vocab)
                         for _ in range(rng.randint(1, 10))]
                        for _ in range(size)]
                return cands, refs

            for _ in range(200):
                cands, refs = random_corpus()
                order = list(range(len(cands)))
                rng.shuffle(order)
                shuffled_c = [cands[i] for i in order]
                shuffled_r = [refs[i] for i in order]
                assert bleu(shuffled_c, shuffled_r, 4) == \
                    bleu(cands, refs, 4)
                _, mean = cider(cands, refs)
                _, shuffled_mean = cider(shuffled_c, shuffled_r)
                assert abs(shuffled_mean - mean) < 1e-12

            for _ in range(200):
                a = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
                b = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
                token = rng.choice(vocab)
                assert lcs_length(a + [token], b + [token]) >= \
                    lcs_length(a, b)

            for _ in range(200):
                u = {("g", i): rng.uniform(0.1, 5.0)
                     for i in range(rng.randint(1, 6))}
                v = {("g", i): rng.uniform(0.1, 5.0)
                     for i in range(rng.randint(1, 6))}
                scale = rng.uniform(0.5, 20.0)
                base = cosine(u, v)
                scaled = cosine({k: scale * x for k, x in u.items()},
                                {k: scale * x for k, x in v.items()})
                assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))

    def test_07_infusion_identity_and_weight_count(self, capsys):
        with check(capsys, 7, "infusion identity and weight count", 5.0):
            rng = np.random.default_rng(7)
            for _ in range(100):
                shape = (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
                tensor = rng.standard_normal(shape)
                out = infuse(tensor, 0.0)
                assert out.shape == tensor.shape
                assert out.tobytes() == tensor.tobytes()

            assert np.array_equal(infuse(np.array([[0.5, -0.5]]), 1.0),
                                  np.array([[1.5, 0.5]]))

            model = ToyModel()
            images = demo_image_pair(17)
            count_before = model.parameter_count()
            forward(model, images, 1.0)
            baseline = forward(model, images, None)
            assert model.parameter_count() == count_before
            assert model.parameter_count() == \
                ToyModel().parameter_count()

            plain = forward(model, images, 0.0)
            assert plain.tokens == baseline.tokens
            assert plain.latent.tobytes() == baseline.latent.tobytes()
            assert plain.latent_infused.tobytes() == \
                baseline.latent_infused.tobytes()

    def test_08_gradient_check(self, capsys):
        with check(capsys, 8, "gradient check", 10.0):
            model = ToyModel()
            for seed in (17, 1, 2, 3, 4):
                report = grad_check(model, demo_image_pair(seed), 1.0)
                assert report.max_rel_error < 1e-4
                assert "prior" in report.per_param
                assert report.per_param["prior"] < 1e-4

    def test_09_prior_changes_decoding(self, capsys):
        with check(capsys, 9, "prior flips decoded sequence", 5.0):
            model = ToyModel()
            images = demo_image_pair(17)
            without = forward(model, images, 0.0)
            with_prior = forward(model, images, 1.0)
            assert without.tokens != with_prior.tokens
            assert (without.latent_infused != with_prior.latent_infused).any()

    def test_10_pipeline_stratified_summary(self, capsys):
        """Label + score + stratify must match a hand-built summary."""
        with check(capsys, 10, "pipeline stratified summary", 1.0):
            records = load_corpus(FIXTURES / "pipeline6.jsonl")
            result = pipeline_label_then_eval(records)
            assert [lab.value for lab in result.labels] == [0, 1, 1, 0, 0, 0]

            def smoothed_b4(precisions, c, r):
                log_sum = 0.0
                for p in precisions:
                    log_sum += math.log(p)
                penalty = 1.0 if c >= r else math.exp(1.0 - r / c)
                return penalty * math.exp(log_sum / 4)

            by_hand = {
                "f1": 1.0,
                "f2": smoothed_b4([1 / 12] * 4, 6, 4),
                "f3": smoothed_b4([1 / 14] * 4, 7, 3),
                "f4": 1.0,
                "f5": 1.0,
                "f6": smoothed_b4([5 / 6, 3 / 5, 2 / 4, 1 / 3], 6, 5),
            }
            for row in result.metrics.per_report:
                assert row.bleu[3] == by_hand[row.id]

            def stats(values):
                mean = math.fsum(values) / len(values)
                variance = math.fsum((x - mean) ** 2
                                     for x in values) / len(values)
                return mean, math.sqrt(variance)

            negative = [by_hand[i] for i in ("f1", "f4", "f5", "f6")]
            positive = [by_hand[i] for i in ("f2", "f3")]
            neg_mean, neg_std = stats(negative)
            pos_mean, pos_std = stats(positive)
            summary = result.summary
            assert summary.negative.count == 4
            assert summary.positive.count == 2
            assert summary.negative.mean == neg_mean
            assert summary.negative.std == neg_std
            assert summary.positive.mean == pos_mean
            assert summary.positive.std == pos_std
            assert summary.negative.min == min(negative)
            assert summary.negative.max == max(negative)
            assert summary.positive.min == min(positive)
            assert summary.positive.max == max(positive)

            edges = tuple(np.linspace(0.0, 1.0, 21))
            assert summary.negative.histogram.bin_edges == edges
            neg_counts = [0] * 20
            neg_counts[10] = 1
            neg_counts[19] = 3
            pos_counts = [0] * 20
            pos_counts[1] = 2
            assert list(summary.negative.histogram.counts) == neg_counts
            assert list(summary.positive.histogram.counts) == pos_counts
            assert sum(summary.negative.histogram.counts) == 4
            assert sum(summary.positive.histogram.counts) == 2
            assert summary.negative.mean_token_length == 23 / 4
            assert summary.positive.mean_token_length == 13 / 2

    def test_11_labeling_throughput(self, capsys):
        """10,000 reports of roughly 40 tokens label in under 5 seconds."""
        with check(capsys, 11, "labeling throughput"):
            rng = random.Random(11)
            filler = ("the lungs are clear heart size normal no focal "
                      "consolidation pleural effusion or pneumothorax bony "
                      "structures intact degenerative changes visualized "
                      "osseous mild stable patchy opacity right base low "
                      "volumes").split()
            extras = ["compared to prior examination", "again noted",
                      "in the interval", "no prior study for review",
                      "unchanged from previous exam"]
            reports = []
            for i in range(10_000):
                words = [rng.choice(filler) for _ in range(36)]
                if i % 3 == 0:
                    words.extend(rng.choice(extras).split())
                sentence = " ".join(words)
                reports.append(make_report(
                    f"r{i}", sentence[:1].upper() + sentence[1:] + "."))

            rules = default_rules()
            start = time.perf_counter()
            labels = [label_report(report, rules) for report in reports]
            elapsed = time.perf_counter() - start
            assert len(labels) == 10_000
            assert any(lab.value == 1 for lab in labels)
            assert any(lab.value == 0 for lab in labels)
            assert elapsed < 5.0, f"labeling took {elapsed:.2f}s"
