"""Label-stratified score summaries and plot-ready exports.

Scores are grouped by binary label and reduced to count, mean,
population standard deviation, extrema, and a fixed-width histogram.
Sums use compensated summation (``math.fsum``) over a fixed index order
so identical inputs give bitwise-identical summaries run to run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._io import atomic_write_text

__all__ = [
    "ScoreRow",
    "Histogram",
    "StratumStats",
    "StratifiedSummary",
    "stratify",
    "emit_plot_data",
]

DEFAULT_BINS = 20


class ScoreRow(NamedTuple):
    id: str
    score: float
    label: int


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"bin_edges": list(self.bin_edges), "counts": list(self.counts)}


@dataclass(frozen=True)
class StratumStats:
    count: int
    mean: float
    std: float
    min: float
    max: float
    histogram: Histogram
    mean_token_length: float | None = None

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "histogram": self.histogram.to_dict(),
            "mean_token_length": self.mean_token_length,
        }


@dataclass(frozen=True)
class StratifiedSummary:
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


def _stratum(scores: list[float], bins: int, value_range: tuple[float, float],
             lengths: list[int] | None) -> StratumStats:
    mean = math.fsum(scores) / len(scores)
    variance = math.fsum((x - mean) ** 2 for x in scores) / len(scores)
    # Scores outside the histogram range land in the edge bins so counts
    # always sum to the stratum size.
    clipped = np.clip(np.asarray(scores, dtype=float),
                      value_range[0], value_range[1])
    counts, edges = np.histogram(clipped, bins=bins, range=value_range)
    mean_length = None
    if lengths:
        mean_length = math.fsum(lengths) / len(lengths)
    return StratumStats(
        count=len(scores),
        mean=mean,
        std=math.sqrt(variance),
        min=min(scores),
        max=max(scores),
        histogram=Histogram(bin_edges=tuple(float(e) for e in edges),
                            counts=tuple(int(c) for c in counts)),
        mean_token_length=mean_length,
    )


def stratify(rows: Sequence[ScoreRow], bins: int = DEFAULT_BINS,
             value_range: tuple[float, float] = (0.0, 1.0),
             token_lengths: Mapping[str, int] | None = None) -> StratifiedSummary:
    """Summarize scores per label.

    ``token_lengths`` optionally maps record id to a token count; when
    given, each stratum reports its mean token length. A label with no
    rows yields an absent stratum rather than NaN statistics.
    """
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    strata: dict[int, StratumStats | None] = {}
    for wanted in (0, 1):
        scores = [row.score for row in rows if row.label == wanted]
        if not scores:
            strata[wanted] = None
            continue
        lengths = None
        if token_lengths is not None:
            lengths = [token_lengths[row.id] for row in rows
                       if row.label == wanted and row.id in token_lengths]
        strata[wanted] = _stratum(scores, bins, value_range, lengths)
    return StratifiedSummary(negative=strata[0], positive=strata[1],
                             bins=bins, value_range=value_range)


def emit_plot_data(summary: StratifiedSummary, csv_path: str | Path) -> Path:
    """Write histogram bins as CSV and the stats block as JSON.

    The JSON lands next to the CSV with a ``.json`` suffix; its path is
    returned. Absent strata are omitted from the CSV and null in the
    JSON. Floats use their shortest exact decimal form.
    """
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
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
    atomic_write_text(csv_path, buffer.getvalue())
    atomic_write_text(json_path,
                      json.dumps(summary.to_dict(), indent=2, sort_keys=True)
                      + "\n")
    return json_path
