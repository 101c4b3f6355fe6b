"""The analyze pipeline: label-stratified score summaries and plot exports.

:func:`pipeline_label_then_eval` computes all that ``analyze`` reports and
:mod:`radpriors.cli` serializes it; only ``analyze`` loads this module.

Scores are grouped by binary label and reduced to count, mean,
population standard deviation, extrema, and a fixed-width histogram.
Sums use compensated summation (``math.fsum``) over a fixed index order
so identical inputs give bitwise-identical summaries run to run.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path
from typing import NamedTuple, Sequence

from ._io import (DEFAULT_BINS, DEFAULT_METRIC, METRIC_NAMES, csv_text,
                  indented_json)
from .corpus import CorpusRecord
from .labeler import LabelCounts, PriorLabel, label_corpus
from .metrics import CIDER_SCALE, MetricReport, _metric_values, evaluate_corpus
from .rules import RuleSet

__all__ = [
    "ScoreRow",
    "Histogram",
    "StratumStats",
    "StratifiedSummary",
    "PipelineResult",
    "stratify",
    "pipeline_label_then_eval",
    "emit_plot_data",
    "plot_stats_path",
]


class ScoreRow(NamedTuple):
    score: float
    label: int
    length: int


class Histogram(NamedTuple):
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"bin_edges": list(self.bin_edges), "counts": list(self.counts)}


class StratumStats(NamedTuple):
    count: int
    mean: float
    std: float
    min: float
    max: float
    histogram: Histogram
    mean_token_length: float

    def to_dict(self) -> dict:
        return {**self._asdict(), "histogram": self.histogram.to_dict()}


class StratifiedSummary(NamedTuple):
    negative: StratumStats | None
    positive: StratumStats | None
    bins: int
    value_range: tuple[float, float]

    @property
    def positive_mean_below_negative(self) -> bool | None:
        """None when a stratum is absent; left out of :meth:`to_dict`."""
        if self.negative is None or self.positive is None:
            return None
        return self.positive.mean < self.negative.mean

    def to_dict(self) -> dict:
        return {
            "metadata": {
                "bins": self.bins,
                "range": list(self.value_range),
                "std": "population",
            },
            "negative": self.negative.to_dict() if self.negative else None,
            "positive": self.positive.to_dict() if self.positive else None,
        }


def _histogram(scores: list[float], bins: int,
               value_range: tuple[float, float]) -> Histogram:
    """Equal-width bins over ``value_range``, the last bin closed.

    Edge ``i`` is ``low + i * step`` and the last edge is exactly
    ``high``. Scores outside the range land in the edge bins so counts
    always sum to the stratum size.
    """
    low, high = map(float, value_range)
    step = (high - low) / bins
    edges = [low + i * step for i in range(bins)] + [high]
    counts = [0] * bins
    for score in scores:
        index = bisect.bisect_right(edges, score) - 1
        counts[min(max(index, 0), bins - 1)] += 1
    return Histogram(bin_edges=tuple(edges), counts=tuple(counts))


def _stratum(rows: list[ScoreRow], bins: int,
             value_range: tuple[float, float]) -> StratumStats:
    scores = [row.score for row in rows]
    mean = math.fsum(scores) / len(scores)
    variance = math.fsum((x - mean) ** 2 for x in scores) / len(scores)
    return StratumStats(
        count=len(scores),
        mean=mean,
        std=math.sqrt(variance),
        min=min(scores),
        max=max(scores),
        histogram=_histogram(scores, bins, value_range),
        mean_token_length=math.fsum(row.length for row in rows) / len(rows),
    )


def stratify(rows: Sequence[ScoreRow], bins: int = DEFAULT_BINS,
             value_range: tuple[float, float] = (0.0, 1.0)) -> StratifiedSummary:
    """Summarize scores, and the token lengths they were scored at, per label.

    A label with no rows yields an absent stratum rather than NaN
    statistics.
    """
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    low, high = value_range
    if not (low < high and math.isfinite(high - low)):
        raise ValueError(f"value_range must be finite and increasing, "
                         f"got {value_range}")
    strata: dict[int, StratumStats | None] = {}
    for wanted in (0, 1):
        stratum = [row for row in rows if row.label == wanted]
        strata[wanted] = (_stratum(stratum, bins, value_range)
                          if stratum else None)
    return StratifiedSummary(negative=strata[0], positive=strata[1],
                             bins=bins, value_range=value_range)


class PipelineResult(NamedTuple):
    """Everything the analyze pipeline produces in one pass."""

    metrics: MetricReport
    counts: LabelCounts
    labels: list[PriorLabel]
    summary: StratifiedSummary


def pipeline_label_then_eval(records: list[CorpusRecord],
                             rules: RuleSet | None = None,
                             metric: str = DEFAULT_METRIC,
                             bins: int = DEFAULT_BINS) -> PipelineResult:
    """Label candidates, score them, and stratify scores by label.

    This mirrors the analysis used to compare generated reports: the
    label comes from the candidate text, the score from candidate vs
    reference, and the summary groups scores by that label; each
    stratum's mean token length is that of its candidates.
    """
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    labels, counts = label_corpus(records, rules, text_source="candidate")
    metrics = evaluate_corpus(records).with_labels(
        label.value for label in labels)
    rows = [ScoreRow(score=_metric_values(row)[metric], label=row.label,
                     length=row.candidate_length)
            for row in metrics.per_report]
    value_range = (0.0, CIDER_SCALE if metric.startswith("cider") else 1.0)
    return PipelineResult(metrics, counts, labels,
                          stratify(rows, bins=bins, value_range=value_range))


def plot_stats_path(csv_path: str | Path) -> Path:
    """Where the stats JSON for ``csv_path`` goes."""
    return Path(csv_path).with_suffix(".json")


def emit_plot_data(summary: StratifiedSummary,
                   csv_path: str | Path) -> dict[str | Path, str]:
    """Histogram bins as CSV and the stats block as JSON; writes nothing.

    Returns ``{csv_path: csv_text, plot_stats_path(csv_path): json_text}``,
    spelled by :func:`radpriors._io.csv_text` and
    :func:`radpriors._io.indented_json` as every output file is. Absent
    strata are omitted from the CSV and null in the JSON. Floats use
    their shortest exact decimal form.
    """
    rows = [["label", "bin_start", "bin_end", "count"]]
    for label_value, stratum in ((0, summary.negative),
                                 (1, summary.positive)):
        if stratum is not None:
            edges = stratum.histogram.bin_edges
            rows += [[label_value, edges[i], edges[i + 1], count]
                     for i, count in enumerate(stratum.histogram.counts)]
    return {csv_path: csv_text(rows),
            plot_stats_path(csv_path): indented_json(summary.to_dict())}
