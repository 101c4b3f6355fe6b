"""Output checks for the benchmark's CLI invocations.

Each checker takes the generator's truth, the directory the invocation
wrote into and its standard output, and returns a list of problems; an
empty list means the outputs are correct.  The benchmark counts an
invocation as failed when it exits nonzero or any problem is found.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

METRIC_COLUMNS = ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider")
SCORE_MAX = {"cider": 10.0}
# A score may pass its maximum by rounding: CIDEr's cosine of a vector
# with itself can read 1 + 1 ulp.  The project's acceptance tests allow
# CIDEr this much at 10 too.
SCORE_SLACK = 1e-9
# The toy decoder's vocabulary, and the bound its own tests put on the
# analytic-versus-numeric gradient error.
INFUSE_VOCAB = 32
GRAD_ERROR_MAX = 1e-4

_DEMO_LINE = re.compile(r"seed=(-?\d+) prior=([01]) tokens=\[([\d, ]*)\]")
_GRAD_LINE = re.compile(r"grad-check max relative error: (\S+)")


def score_problems(row_id: str, column: str, value: float) -> list[str]:
    """Flag a score that is not finite or lies outside its range."""
    high = SCORE_MAX.get(column, 1.0)
    if not math.isfinite(value) or not 0.0 <= value <= high + SCORE_SLACK:
        return [f"{row_id}: {column}={value!r} outside [0, {high}]"]
    return []


def _ids_problems(found: list[str], truth: dict, what: str) -> list[str]:
    if found != truth["ids"]:
        return [f"{what}: {len(found)} ids, not the {len(truth['ids'])} "
                "input ids in input order"]
    return []


def read_score_csv(path: Path, truth: dict) -> tuple[list[dict], list[str]]:
    """Parse a per-report score CSV and check every row's scores."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        rows = list(reader)
    expected = ["id", *METRIC_COLUMNS, "label"]
    if header != expected:
        return [], [f"{path.name}: header {header} is not {expected}"]
    problems = _ids_problems([row["id"] for row in rows], truth, path.name)
    for row in rows:
        for column in METRIC_COLUMNS:
            try:
                row[column] = float(row[column])
            except ValueError:
                problems.append(f"{row['id']}: {column}={row[column]!r}")
                continue
            problems += score_problems(row["id"], column, row[column])
    by_id = {row["id"]: row for row in rows}
    for row_id in truth["identical"]:
        row = by_id.get(row_id, {})
        for column in ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l"):
            if row.get(column) != 1.0:
                problems.append(f"{row_id}: identical pair has "
                                f"{column}={row.get(column)!r}, not 1.0")
    for row_id in truth["disjoint"]:
        row = by_id.get(row_id, {})
        for column in ("rouge_l", "cider"):
            if row.get(column) != 0.0:
                problems.append(f"{row_id}: disjoint pair has "
                                f"{column}={row.get(column)!r}, not 0.0")
    return rows, problems


def _corpus_score_problems(scores: dict) -> list[str]:
    problems = []
    for column in METRIC_COLUMNS:
        value = scores.get(column)
        if not isinstance(value, (int, float)):
            problems.append(f"corpus {column}={value!r} is not a number")
        else:
            problems += score_problems("corpus", column, float(value))
    return problems


def check_label(truth: dict, out_dir: Path, stdout: str) -> list[str]:
    """``label``: one row per id in order, each label the planted one."""
    rows = [json.loads(line) for line in
            (out_dir / "labels.jsonl").read_text("utf-8").splitlines()]
    problems = _ids_problems([row.get("id") for row in rows], truth,
                             "labels.jsonl")
    for row, label in zip(rows, truth["labels"]):
        if row.get("label") != label:
            problems.append(f"{row.get('id')}: label {row.get('label')!r}, "
                            f"planted {label}")
        elif bool(row.get("evidence")) != bool(label):
            problems.append(f"{row['id']}: evidence does not match label")
    positive = sum(truth["labels"])
    expected = {"negative": len(rows) - positive, "positive": positive,
                "total": len(rows)}
    lines = stdout.strip().splitlines()
    if not lines or json.loads(lines[-1]) != expected:
        problems.append(f"label summary is not {expected}")
    return problems


def check_eval(truth: dict, out_dir: Path, stdout: str) -> list[str]:
    """``eval --csv``: every score in range, planted pairs exact."""
    rows, problems = read_score_csv(out_dir / "scores.csv", truth)
    report = json.loads((out_dir / "eval.json").read_text("utf-8"))
    problems += _corpus_score_problems(report.get("corpus", {}))
    json_rows = report.get("per_report", [])
    problems += _ids_problems([row.get("id") for row in json_rows], truth,
                              "eval.json")
    for json_row, csv_row in zip(json_rows, rows):
        for column in METRIC_COLUMNS:
            if json_row.get(column) != csv_row[column]:
                problems.append(f"{csv_row['id']}: {column} differs between "
                                "eval.json and scores.csv")
    return problems


def check_analyze(truth: dict, out_dir: Path, stdout: str) -> list[str]:
    """``analyze``: candidate labels as planted, strata sum to the records."""
    rows, problems = read_score_csv(out_dir / "scores.csv", truth)
    for row, label in zip(rows, truth["labels"]):
        if row["label"] != str(label):
            problems.append(f"{row['id']}: label {row['label']!r}, "
                            f"planted {label}")
    summary = json.loads((out_dir / "analyze.json").read_text("utf-8"))
    total = len(truth["ids"])
    positive = sum(truth["labels"])
    expected = {"negative": total - positive, "positive": positive,
                "total": total}
    if summary.get("counts") != expected:
        problems.append(f"counts {summary.get('counts')} are not {expected}")
    problems += _corpus_score_problems(summary.get("corpus_metrics", {}))
    strata = summary.get("stratified", {})
    counted = 0
    for name in ("negative", "positive"):
        stratum = strata.get(name)
        if stratum is None:
            continue
        counted += stratum["count"]
        if sum(stratum["histogram"]["counts"]) != stratum["count"]:
            problems.append(f"{name} histogram does not sum to its count")
        for key in ("mean", "min", "max"):
            problems += score_problems(name, key, stratum[key])
    if counted != total:
        problems.append(f"strata hold {counted} records, not {total}")
    with open(out_dir / "plot.csv", newline="", encoding="utf-8") as handle:
        binned = sum(int(row["count"]) for row in csv.DictReader(handle))
    if binned != total:
        problems.append(f"plot data bins hold {binned} records, not {total}")
    if json.loads((out_dir / "plot.json").read_text("utf-8")) \
            != summary.get("stratified"):
        problems.append("plot.json differs from the stratified summary")
    return problems


def check_infuse(truth: dict, out_dir: Path, stdout: str) -> list[str]:
    """``infuse-demo --grad-check``: a decode and a small gradient error.

    ``truth`` names the ``seed`` and ``prior`` the invocation asked for.
    """
    seed, prior = truth["seed"], truth["prior"]
    demo = _DEMO_LINE.search(stdout)
    grad = _GRAD_LINE.search(stdout)
    if demo is None or grad is None:
        return [f"infuse-demo output not understood: {stdout[:200]!r}"]
    problems = []
    if (int(demo.group(1)), int(demo.group(2))) != (seed, prior):
        problems.append(f"decoded seed/prior {demo.groups()[:2]}, "
                        f"asked for {seed}/{prior}")
    tokens = [int(t) for t in demo.group(3).split(",") if t.strip()]
    if not tokens or any(not 0 <= t < INFUSE_VOCAB for t in tokens):
        problems.append(f"decoded tokens {tokens} are empty or out of range")
    error = float(grad.group(1))
    if not math.isfinite(error) or not 0.0 <= error < GRAD_ERROR_MAX:
        problems.append(f"grad-check error {error!r} is not below "
                        f"{GRAD_ERROR_MAX}")
    return problems
