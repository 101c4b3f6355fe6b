"""Label-stratified score summaries and plot-ready exports.

Scores are grouped by binary label and reduced to count, mean,
population standard deviation, extrema, and a fixed-width histogram.
Sums use compensated summation (``math.fsum``) over a fixed index order
so identical inputs give bitwise-identical summaries run to run.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from pathlib import Path
from typing import NamedTuple, Sequence

from ._io import indented_json

__all__ = [
    "ScoreRow",
    "Histogram",
    "StratumStats",
    "StratifiedSummary",
    "stratify",
    "emit_plot_data",
    "plot_stats_path",
]

DEFAULT_BINS = 20


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


def plot_stats_path(csv_path: str | Path) -> Path:
    """Where the stats JSON for ``csv_path`` goes."""
    return Path(csv_path).with_suffix(".json")


def emit_plot_data(summary: StratifiedSummary,
                   csv_path: str | Path) -> dict[str | Path, str]:
    """Histogram bins as CSV and the stats block as JSON; writes nothing.

    Returns ``{csv_path: csv_text, plot_stats_path(csv_path): json_text}``.
    Absent strata are omitted from the CSV and null in the JSON. Floats
    use their shortest exact decimal form.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["label", "bin_start", "bin_end", "count"])
    for label_value, stratum in ((0, summary.negative),
                                 (1, summary.positive)):
        if stratum is None:
            continue
        edges = stratum.histogram.bin_edges
        for i, count in enumerate(stratum.histogram.counts):
            writer.writerow([label_value, repr(edges[i]),
                             repr(edges[i + 1]), count])
    return {csv_path: buffer.getvalue(),
            plot_stats_path(csv_path): indented_json(summary.to_dict())}
