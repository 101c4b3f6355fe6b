"""Stratified score summaries, label counts, plot data."""

import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radpriors.analysis import ScoreRow, emit_plot_data, stratify
from radpriors.corpus import load_corpus
from radpriors.labeler import label_corpus
from radpriors.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures"


def rows_from(scores_by_label):
    rows = []
    for label, scores in scores_by_label.items():
        for i, score in enumerate(scores):
            rows.append(ScoreRow(score=score, label=label, length=i + 1))
    return rows


def reference_histogram(scores, bins, value_range):
    """The numpy histogram ``stratify`` once used: (edges, counts)."""
    clipped = np.clip(np.asarray(scores, dtype=float),
                      value_range[0], value_range[1])
    counts, edges = np.histogram(clipped, bins=bins, range=value_range)
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


@st.composite
def histogram_inputs(draw):
    """Bins, a range, and scores in and around it, on and beside edges."""
    bins = draw(st.integers(1, 200))
    low, high = draw(st.sampled_from([(0.0, 1.0), (0.0, 10.0)]))
    edges, _ = reference_histogram([], bins, (low, high))
    near_edges = [x for edge in edges
                  for x in (math.nextafter(edge, -math.inf), edge,
                            math.nextafter(edge, math.inf))]
    scores = draw(st.lists(
        st.one_of(st.floats(low - 1.0, high + 1.0),
                  st.sampled_from(near_edges)),
        min_size=1, max_size=60))
    return scores, bins, (low, high)


class TestStratify:
    def test_two_point_means(self):
        summary = stratify(rows_from({0: [0.2, 0.4], 1: [0.1]}))
        assert summary.negative.mean == pytest.approx(0.3, abs=1e-12)
        assert summary.positive.mean == pytest.approx(0.1, abs=1e-12)
        assert summary.negative.count == 2
        assert summary.positive.count == 1

    def test_absent_stratum_is_none(self):
        summary = stratify(rows_from({0: [0.5, 0.6]}))
        assert summary.positive is None
        assert summary.to_dict()["positive"] is None

    @pytest.mark.parametrize("scores_by_label, below", [
        ({0: [0.5, 0.7], 1: [0.2]}, True),
        ({0: [0.2], 1: [0.5, 0.7]}, False),
        ({0: [0.4], 1: [0.4]}, False),
        ({0: [0.4]}, None),
        ({1: [0.4]}, None),
        ({}, None),
    ], ids=["below", "above", "equal", "no-positive", "no-negative", "empty"])
    def test_positive_mean_below_negative(self, scores_by_label, below):
        summary = stratify(rows_from(scores_by_label))
        assert summary.positive_mean_below_negative is below
        assert set(summary.to_dict()) == {"metadata", "negative", "positive"}

    def test_histogram_counts_sum_to_stratum_size(self):
        rng = random.Random(3)
        rows = rows_from({0: [rng.random() for _ in range(37)],
                          1: [rng.random() for _ in range(13)]})
        summary = stratify(rows)
        assert sum(summary.negative.histogram.counts) == 37
        assert sum(summary.positive.histogram.counts) == 13

    def test_out_of_range_scores_land_in_edge_bins(self):
        summary = stratify(rows_from({0: [-0.5, 0.5, 1.7]}))
        counts = summary.negative.histogram.counts
        assert sum(counts) == 3
        assert counts[0] == 1
        assert counts[-1] == 1

    def test_statistics_match_single_pass_recomputation(self):
        """1000 seeded uniform scores: mean/std equal an independent
        single-pass summation and sit within 3 standard errors of the
        generator parameters."""
        rng = random.Random(29)
        scores = [rng.random() for _ in range(1000)]
        summary = stratify(rows_from({0: scores}))
        total = 0.0
        total_sq = 0.0
        for score in scores:
            total += score
            total_sq += score * score
        mean = total / 1000
        std = math.sqrt(total_sq / 1000 - mean * mean)
        assert summary.negative.mean == pytest.approx(mean, abs=1e-12)
        assert summary.negative.std == pytest.approx(std, abs=1e-9)
        se_mean = (1 / math.sqrt(12)) / math.sqrt(1000)
        assert abs(summary.negative.mean - 0.5) < 3 * se_mean
        assert abs(summary.negative.std - 1 / math.sqrt(12)) < 0.03

    def test_min_mean_max_ordering(self):
        summary = stratify(rows_from({0: [0.1, 0.9, 0.4]}))
        stratum = summary.negative
        assert stratum.min <= stratum.mean <= stratum.max
        assert stratum.std >= 0.0

    def test_merged_strata_reproduce_unstratified_mean(self):
        rng = random.Random(31)
        scores0 = [rng.random() for _ in range(41)]
        scores1 = [rng.random() for _ in range(59)]
        summary = stratify(rows_from({0: scores0, 1: scores1}))
        merged = (summary.negative.count * summary.negative.mean
                  + summary.positive.count * summary.positive.mean) / 100
        overall = math.fsum(scores0 + scores1) / 100
        assert merged == pytest.approx(overall, abs=1e-12)

    def test_mean_token_length_per_stratum(self):
        rows = [ScoreRow(score=0.2, label=0, length=4),
                ScoreRow(score=0.9, label=1, length=10),
                ScoreRow(score=0.8, label=1, length=6)]
        summary = stratify(rows)
        assert summary.negative.mean_token_length == 4.0
        assert summary.positive.mean_token_length == 8.0

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            stratify(rows_from({0: [0.5]}), bins=0)

    @pytest.mark.parametrize("value_range", [
        (1.0, 0.0), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0)])
    def test_invalid_value_range(self, value_range):
        with pytest.raises(ValueError, match="value_range"):
            stratify(rows_from({0: [0.5]}), value_range=value_range)

    @settings(max_examples=300, deadline=None)
    @given(histogram_inputs())
    def test_histogram_equals_reference(self, case):
        scores, bins, value_range = case
        summary = stratify(rows_from({0: scores}), bins=bins,
                           value_range=value_range)
        edges, counts = reference_histogram(scores, bins, value_range)
        assert summary.negative.histogram.bin_edges == edges
        assert all(type(edge) is float
                   for edge in summary.negative.histogram.bin_edges)
        assert summary.negative.histogram.counts == counts

    def test_custom_value_range(self):
        summary = stratify(rows_from({0: [2.0, 9.0]}), bins=10,
                           value_range=(0.0, 10.0))
        edges = summary.negative.histogram.bin_edges
        assert edges[0] == 0.0
        assert edges[-1] == 10.0
        assert sum(summary.negative.histogram.counts) == 2


class TestCountLabels:
    def test_table_fixture_counts(self):
        records = load_corpus(FIXTURES / "golden4.jsonl")
        _, counts = label_corpus(records, default_rules())
        assert counts.to_dict() == {"negative": 1, "positive": 3, "total": 4}


class TestEmitPlotData:
    def test_returns_the_csv_then_the_stats_json_beside_it(self):
        summary = stratify(rows_from({0: [0.3]}))
        texts = emit_plot_data(summary, "out/plot.csv")
        assert list(texts) == ["out/plot.csv", Path("out/plot.json")]

    def test_single_stratum_has_twenty_rows(self):
        summary = stratify(rows_from({0: [0.1, 0.2, 0.9]}))
        csv_text, json_text = emit_plot_data(summary, "plot.csv").values()
        assert "\r" not in csv_text and csv_text.endswith("\n")
        lines = csv_text.splitlines()
        assert lines[0] == "label,bin_start,bin_end,count"
        assert len(lines) == 1 + 20
        blob = json.loads(json_text)
        assert blob["positive"] is None
        assert blob["negative"]["count"] == 3

    def test_round_trip_counts(self):
        rng = random.Random(41)
        rows = rows_from({0: [rng.random() for _ in range(20)],
                          1: [rng.random() for _ in range(15)]})
        summary = stratify(rows)
        csv_text = emit_plot_data(summary, "plot.csv")["plot.csv"]
        recounted = {0: [0] * 20, 1: [0] * 20}
        rows = csv.DictReader(io.StringIO(csv_text, newline=""))
        for i, row in enumerate(rows):
            recounted[int(row["label"])][i % 20] = int(row["count"])
        assert tuple(recounted[0]) == summary.negative.histogram.counts
        assert tuple(recounted[1]) == summary.positive.histogram.counts

    def test_bin_edges_parse_back_exactly(self):
        summary = stratify(rows_from({0: [0.3]}))
        csv_text = emit_plot_data(summary, "plot.csv")["plot.csv"]
        starts = [float(row["bin_start"])
                  for row in csv.DictReader(io.StringIO(csv_text, newline=""))]
        assert tuple(starts) == summary.negative.histogram.bin_edges[:-1]

    def test_metadata_documents_choices(self):
        summary = stratify(rows_from({0: [0.3]}))
        json_text = emit_plot_data(summary, "plot.csv")[Path("plot.json")]
        metadata = json.loads(json_text)["metadata"]
        assert metadata["bins"] == 20
        assert metadata["std"] == "population"
        assert metadata["range"] == [0.0, 1.0]

    def test_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        emit_plot_data(stratify(rows_from({0: [0.3]})), "plot.csv")
        assert list(tmp_path.iterdir()) == []

    def test_histogram_edges_match_numpy(self):
        summary = stratify(rows_from({0: [0.25, 0.75]}))
        expected = np.histogram([], bins=20, range=(0.0, 1.0))[1]
        np.testing.assert_array_equal(summary.negative.histogram.bin_edges,
                                      expected)
