"""Self-tests for the benchmark's generator, output checks and spans.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import gen
import spans

SRC = Path(__file__).resolve().parents[1] / "src"


def _files(directory: Path) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_same_seed_gives_identical_files(tmp_path):
    for workload in gen.WORKLOADS:
        gen.generate(workload, 7, tmp_path / "a" / workload, count=120)
        gen.generate(workload, 7, tmp_path / "b" / workload, count=120)
        gen.generate(workload, 8, tmp_path / "c" / workload, count=120)
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first and first == second
    other = _files(tmp_path / "c")
    assert any(other[name] != data for name, data in first.items()
               if "infuse-demo" not in name)


@pytest.fixture
def radpriors_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from radpriors import default_rules, label_report, make_report
    return default_rules, label_report, make_report


def test_planted_labels_match_the_rules(radpriors_modules):
    default_rules, label_report, make_report = radpriors_modules
    rules = default_rules()
    for phrase in gen.PRIOR_PHRASES:
        for filler in gen.SAFE_PHRASES:
            report = make_report("x", gen._sentence(filler + " " + phrase))
            assert label_report(report, rules).value == 1, (filler, phrase)
    for sentence in gen.NEGATED_SENTENCES:
        assert label_report(make_report("x", sentence), rules).value == 0
    for verb in gen.CHANGE_VERBS:
        for phrase in gen.PHRASES:
            report = make_report("x", gen._sentence(verb + " " + phrase))
            assert label_report(report, rules).value == 0, (verb, phrase)
    for phrase in gen.PHRASES:
        assert label_report(make_report("x", phrase), rules).value == 0


def _label_outputs(tmp_path: Path) -> tuple[dict, list[dict]]:
    truth = gen.generate("label-reports", 3, tmp_path / "in", count=30)
    rows = [{"id": i, "label": label, "evidence": [{}] if label else []}
            for i, label in zip(truth["ids"], truth["labels"])]
    return truth, rows


def _write_labels(out: Path, rows: list[dict]) -> str:
    out.mkdir(exist_ok=True)
    (out / "labels.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), "utf-8")
    positive = sum(row["label"] for row in rows)
    return json.dumps({"negative": len(rows) - positive,
                       "positive": positive, "total": len(rows)})


def test_label_check_flags_a_flipped_label(tmp_path):
    truth, rows = _label_outputs(tmp_path)
    out = tmp_path / "out"
    assert checks.check_label(truth, out, _write_labels(out, rows)) == []
    rows[4] = dict(rows[4], label=1 - rows[4]["label"])
    problems = checks.check_label(truth, out, _write_labels(out, rows))
    assert any(rows[4]["id"] in problem for problem in problems)


def test_label_check_flags_missing_and_reordered_rows(tmp_path):
    truth, rows = _label_outputs(tmp_path)
    out = tmp_path / "out"
    assert checks.check_label(truth, out, _write_labels(out, rows[:-1]))
    swapped = [rows[1], rows[0], *rows[2:]]
    assert checks.check_label(truth, out, _write_labels(out, swapped))


def _score_csv(path: Path, truth: dict, override: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", *checks.METRIC_COLUMNS, "label"])
        for row_id in truth["ids"]:
            scores = {column: 0.5 for column in checks.METRIC_COLUMNS}
            if row_id in truth["identical"]:
                scores.update(bleu1=1.0, bleu2=1.0, bleu3=1.0, bleu4=1.0,
                              rouge_l=1.0, cider=10.0)
            if row_id in truth["disjoint"]:
                scores.update(rouge_l=0.0, cider=0.0)
            scores.update(override.get(row_id, {}))
            writer.writerow([row_id, *(repr(scores[c])
                                       for c in checks.METRIC_COLUMNS), ""])


@pytest.mark.parametrize("column,value", [
    ("bleu4", 1.5), ("rouge_l", -0.1), ("cider", 10.5), ("bleu1", math.nan),
])
def test_score_check_flags_a_score_out_of_range(tmp_path, column, value):
    truth = gen.generate("eval-pairs", 3, tmp_path / "in", count=50)
    path = tmp_path / "scores.csv"
    _score_csv(path, truth, {})
    assert checks.read_score_csv(path, truth)[1] == []
    _score_csv(path, truth, {truth["ids"][2]: {column: value}})
    problems = checks.read_score_csv(path, truth)[1]
    assert len(problems) == 1 and truth["ids"][2] in problems[0]


def test_score_check_allows_rounding_at_the_maximum():
    assert checks.score_problems("x", "cider", 10.000000000000002) == []
    assert checks.score_problems("x", "rouge_l", 1.0) == []
    assert checks.score_problems("x", "rouge_l", 1.001)


def test_score_check_flags_inexact_planted_pairs(tmp_path):
    truth = gen.generate("eval-pairs", 3, tmp_path / "in", count=50)
    assert truth["identical"] and truth["disjoint"]
    path = tmp_path / "scores.csv"
    _score_csv(path, truth, {truth["identical"][0]: {"bleu4": 0.99},
                             truth["disjoint"][0]: {"cider": 0.01}})
    problems = checks.read_score_csv(path, truth)[1]
    assert len(problems) == 2


def test_disjoint_candidates_share_no_token(tmp_path):
    gen.generate("analyze-long", 5, tmp_path, count=80)
    truth = json.loads((tmp_path / "truth.json").read_text("utf-8"))
    rows = {row["id"]: row for row in map(
        json.loads, (tmp_path / "input.jsonl").read_text("utf-8").splitlines())}
    for row_id in truth["disjoint"]:
        words = [set(w.strip(".").lower() for w in rows[row_id][f].split())
                 for f in ("reference", "candidate")]
        assert not words[0] & words[1]


def test_benchmark_json_names_what_run_reports():
    import run
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    per_layer.update(run.DERIVED)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_self_time_on_a_hand_built_tree():
    tree = [
        spans.Span(2, 1, "grandchild", 2.0, 3.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(3, 0, "b", 4.5, 6.0),
        spans.Span(4, 0, "a", 7.0, 9.5),
        spans.Span(0, None, "root", 0.0, 10.0),
    ]
    times = spans.self_times(tree)
    assert times == {0: 10.0 - 3.0 - 1.5 - 2.5, 1: 2.0, 2: 1.0, 3: 1.5,
                     4: 2.5}
    recorder = spans.Recorder()
    recorder.spans.extend(tree)
    layers = recorder.layer_times()
    assert layers["root"] == (10.0, 3.0)
    assert layers["a"] == (5.5, 4.5)


def test_recorder_nests_spans_and_counts_calls():
    recorder = spans.Recorder()
    inner = recorder.wrap("layer.inner", lambda x: x + 1)
    outer = recorder.wrap("layer.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = {span.name: span for span in recorder.spans}
    assert names["layer.outer"].parent is None
    assert all(span.parent == names["layer.outer"].id
               for span in recorder.spans if span.name == "layer.inner")
    assert recorder.counts["layer.inner.calls"] == 2
    assert len({span.id for span in recorder.spans}) == 3


def test_instrument_reaches_imported_names_and_restores_them(
        radpriors_modules):
    import radpriors.labeler as labeler
    import radpriors.rules as rules
    original = labeler.make_report, rules.KeywordEntry.matches
    recorder = spans.Recorder()
    with spans.instrument(recorder, hot=True):
        assert labeler.make_report is not original[0]
        report = labeler.make_report("x", "Stable compared to prior exam.")
        labeler.label_report(report, rules.default_rules())
    assert (labeler.make_report, rules.KeywordEntry.matches) == original
    assert recorder.counts["corpus.make_report.calls"] == 1
    assert recorder.counts["rules.KeywordEntry.matches.calls"] > 0
    assert recorder.counts["labeler.mentions_prior_expression"] == 1
    assert "labeler.extract_mentions" in recorder.layer_times()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
