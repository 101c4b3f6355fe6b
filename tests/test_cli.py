"""CLI subcommands, exit codes, output determinism."""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import radpriors
from radpriors import rules
from radpriors._io import DataError
from radpriors.cli import _label_jsonl, pipeline_label_then_eval, run
from radpriors.corpus import CorpusError, CorpusRecord, load_corpus
from radpriors.infusion import InfusionError
from radpriors.labeler import (ClassifiedMention, Mention, PriorLabel,
                               Verdict)
from radpriors.metrics import EvaluationError
from radpriors.rules import KeywordEntry, RuleFileError

FIXTURES = Path(__file__).parent / "fixtures"


def dumped_lines(records, labels):
    """The ``label`` output as one ``json.dumps`` of each line's object."""
    return "".join(json.dumps(
        {"id": record.id, "label": label.value,
         "evidence": [{"sentence_index": item.mention.sentence_index,
                       "span": list(item.match_span),
                       "rule": item.fired_rule} for item in label.evidence]},
        ensure_ascii=False, sort_keys=True) + "\n"
        for record, label in zip(records, labels))


# Strings JSON must escape or may pass through: quotes, backslashes,
# control characters, the two line separators ``ensure_ascii=False``
# keeps, and characters outside the Basic Multilingual Plane.
JSON_STRINGS = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                     "\u2029", "\U0001f600", "\U00010000", "\ufeff", "é"]),
    st.characters(blacklist_categories=("Cs",))), max_size=10)
EVIDENCE = st.builds(
    lambda rule, index, start, length: ClassifiedMention(
        Mention(KeywordEntry("prior"), index, (start, start + 1), "prior"),
        Verdict.PRIOR_EXPRESSION, rule, (start, start + length)),
    JSON_STRINGS, st.integers(0, 10**6), st.integers(0, 10**6),
    st.integers(1, 40))


class TestLabelCommand:
    def test_table_fixture_labels(self, tmp_path, capsys):
        out = tmp_path / "labels.jsonl"
        code = run(["label", "--in", str(FIXTURES / "golden4.jsonl"),
                    "--out", str(out)])
        assert code == 0
        lines = [json.loads(line) for line in
                 out.read_text(encoding="utf-8").splitlines()]
        assert [row["label"] for row in lines] == [1, 1, 0, 1]
        assert [row["id"] for row in lines] == ["t1", "t2", "t3", "t4"]
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"negative": 1, "positive": 3, "total": 4}

    def test_line_count_matches_record_count(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        run(["label", "--in", str(FIXTURES / "synthetic50.jsonl"),
             "--out", str(out)])
        assert len(out.read_text(encoding="utf-8").splitlines()) == 50

    def test_evidence_structure(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        run(["label", "--in", str(FIXTURES / "golden4.jsonl"),
             "--out", str(out)])
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        item = first["evidence"][0]
        assert set(item) == {"sentence_index", "span", "rule"}
        assert item["span"] == [6, 10]

    def test_label_on_candidate(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        code = run(["label", "--in", str(FIXTURES / "pipeline3.jsonl"),
                    "--out", str(out), "--label-on", "candidate"])
        assert code == 0
        labels = [json.loads(line)["label"] for line in
                  out.read_text(encoding="utf-8").splitlines()]
        assert labels == [0, 1, 0]

    def test_summary_file(self, tmp_path):
        out = tmp_path / "labels.jsonl"
        summary = tmp_path / "counts.json"
        run(["label", "--in", str(FIXTURES / "golden4.jsonl"),
             "--out", str(out), "--summary", str(summary)])
        assert json.loads(summary.read_text(encoding="utf-8")) == \
            {"negative": 1, "positive": 3, "total": 4}

    def test_rules_override(self, tmp_path):
        rules = tmp_path / "tiny.rules"
        rules.write_text("[keywords]\n[negations]\n[priors]\n",
                         encoding="utf-8")
        out = tmp_path / "labels.jsonl"
        run(["label", "--in", str(FIXTURES / "golden4.jsonl"),
             "--out", str(out), "--rules", str(rules)])
        labels = [json.loads(line)["label"] for line in
                  out.read_text(encoding="utf-8").splitlines()]
        assert labels == [0, 0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(JSON_STRINGS, st.lists(EVIDENCE, max_size=3)),
                    max_size=4))
    def test_lines_equal_json_dumps(self, rows):
        records = [CorpusRecord(id=record_id, text="")
                   for record_id, _ in rows]
        labels = [PriorLabel(1 if evidence else 0, tuple(evidence))
                  for _, evidence in rows]
        assert _label_jsonl(records, labels) == dumped_lines(records, labels)

    def test_lone_surrogate_id_fails_alike_and_writes_nothing(self, tmp_path,
                                                              capsys):
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_text('{"id": "ok", "text": "Stable."}\n'
                          '{"id": "a\\ud800", "text": "Stable compared to '
                          'prior exam.", "reference": "x", "candidate": "x"}\n',
                          encoding="utf-8")
        with pytest.raises(CorpusError) as loaded:
            load_corpus(corpus)
        assert str(loaded.value) == \
            "line 2: field 'id' holds a lone surrogate (byte offset 32)"
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for argv in (["label"], ["eval", "--csv", str(out_dir / "m.csv")],
                     ["analyze", "--csv", str(out_dir / "a.csv")]):
            assert run([*argv, "--in", str(corpus),
                        "--out", str(out_dir / "out")]) == 2
            assert capsys.readouterr().err == f"error: {loaded.value}\n"
        assert list(out_dir.iterdir()) == []


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["bogus"]) == 1
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("radpriors 0.1.0")
        assert "rules 1" in printed

    def test_version_text(self, capsys):
        assert run(["--version"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "radpriors 0.1.0 (default rules 1)\n"
        assert captured.err == ""

    def test_version_survives_unreadable_rules(self, monkeypatch, capsys):
        def broken_rules():
            raise RuleFileError("line 3: unknown section [bogus]")

        monkeypatch.setattr(rules, "default_rules", broken_rules)
        assert run(["--version"]) == 0
        captured = capsys.readouterr()
        assert "default rules unknown" in captured.out
        assert "line 3: unknown section [bogus]" in captured.err

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_invalid_utf8_names_its_line_and_writes_nothing(self, format,
                                                            tmp_path, capsys):
        rows = ['{"id": "a", "text": "Stable."}', '{"id": "b", "text": "\xff"}']
        if format == "csv":
            rows = ["id,text", "b,\xff"]
        corpus = tmp_path / f"bad.{format}"
        corpus.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
        out = tmp_path / "out.jsonl"
        assert run(["label", "--format", format, "--in", str(corpus),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: invalid UTF-8: ")
        assert err.endswith(f" (byte offset {len(rows[0]) + 1})\n")
        assert not out.exists()

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = run(["label", "--in", str(tmp_path / "absent.jsonl"),
                    "--out", str(tmp_path / "out.jsonl")])
        assert code == 2
        capsys.readouterr()

    def test_eval_without_candidates_names_first_id(self, tmp_path, capsys):
        code = run(["eval", "--in", str(FIXTURES / "golden4.jsonl"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "t1" in capsys.readouterr().err

    def test_analyze_zero_bins_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code = run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
                    "--out", str(out), "--bins", "0"])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "radpriors analyze: error: argument --bins: "
            "must be a positive integer, got '0'"]

    @pytest.mark.parametrize("plot_data", [".", "/"])
    def test_plot_data_without_file_name_is_usage_error(self, plot_data,
                                                        tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code = run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
                    "--out", str(out), "--plot-data", plot_data])
        assert code == 1
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "radpriors analyze: error: argument --plot-data: "
            f"must name a file, got {plot_data!r}"]

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["infuse-demo", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "radpriors infuse-demo: error: argument --seed: "
            "must be a non-negative integer, got '-1'"]

    @pytest.mark.parametrize("max_len", ["0", "-3", "13"])
    def test_max_len_outside_model_is_data_error(self, max_len, capsys):
        assert run(["infuse-demo", "--max-len", max_len]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: max_len must lie in 1..12, got {max_len}\n"

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--out", "analysis.json", "--plot-data", "analysis.csv"],
         "--out and the stats JSON of --plot-data"),
        (["eval", "--out", "m.json", "--csv", "./m.json"], "--out and --csv"),
        (["label", "--out", "corpus.jsonl"], "--in and --out"),
    ], ids=["analyze", "eval", "label"])
    def test_colliding_paths_are_usage_errors(self, argv, named, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        corpus = (FIXTURES / "pipeline6.jsonl").read_bytes()
        (tmp_path / "corpus.jsonl").write_bytes(corpus)
        assert run([*argv, "--in", "corpus.jsonl"]) == 1
        assert f"error: {named} name the same file" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.jsonl"]
        assert (tmp_path / "corpus.jsonl").read_bytes() == corpus

    @pytest.mark.parametrize("error", [CorpusError, EvaluationError,
                                       InfusionError, RuleFileError])
    def test_data_errors_share_one_base(self, error):
        assert issubclass(error, DataError)
        assert issubclass(error, ValueError)

    @pytest.mark.parametrize("argv, message", [
        (["label", "--in", "dup.jsonl", "--out", "out"],
         "line 2: duplicate id 'a', first on line 1 (byte offset 25)"),
        (["eval", "--in", str(FIXTURES / "golden4.jsonl"), "--out", "out"],
         "record 't1' has no candidate"),
        (["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
          "--out", "out", "--rules", "bad.rules"],
         "line 1: unknown section [bogus]"),
        (["infuse-demo", "--max-len", "0"],
         "max_len must lie in 1..12, got 0"),
    ], ids=["label", "eval", "analyze", "infuse-demo"])
    def test_data_error_exit_code_and_text(self, argv, message, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dup.jsonl").write_text(
            '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
            encoding="utf-8")
        (tmp_path / "bad.rules").write_text("[bogus]\n", encoding="utf-8")
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_repeated_jsonl_key_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "repeated.jsonl"
        corpus.write_text('{"id": "r1", "text": "Stable compared to prior '
                          'exam.", "text": "Clear."}\n', encoding="utf-8")
        out = tmp_path / "labels.jsonl"
        assert run(["label", "--in", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: line 1: key 'text' is repeated (byte offset 0)\n")
        assert not out.exists()

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        bad = tmp_path / "dup.jsonl"
        bad.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
                       encoding="utf-8")
        out = tmp_path / "labels.jsonl"
        assert run(["label", "--in", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))
        capsys.readouterr()

    def test_an_unwritable_later_file_exits_2_and_prints_nothing(
            self, tmp_path, monkeypatch, capsys):
        # Every target is checked before the first write, so the earlier
        # e.json is not left behind.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert run(["eval", "--in", str(FIXTURES / "eval3.jsonl"),
                    "--out", "e.json", "--csv", "d"]) == 2
        assert capsys.readouterr() == (
            "", "error: [Errno 21] Is a directory: 'd'\n")
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["d"]

    def test_a_missing_summary_directory_leaves_no_labels(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["label", "--in", str(FIXTURES / "golden4.jsonl"),
                    "--out", "l.jsonl", "--summary", "missing/s.json"]) == 2
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: "
                "'missing/s.json'\n")
        assert list(tmp_path.iterdir()) == []


_LABEL_EVAL_ANALYZE = """
import sys
from radpriors.cli import run
fixtures, out = sys.argv[1:]
codes = [run(["label", "--in", fixtures + "/golden4.jsonl",
              "--out", out + "/labels.jsonl"]),
         run(["eval", "--in", fixtures + "/eval3.jsonl",
              "--out", out + "/metrics.json"]),
         run(["analyze", "--in", fixtures + "/pipeline6.jsonl",
              "--out", out + "/analysis.json", "--csv", out + "/scores.csv",
              "--plot-data", out + "/plot.csv"])]
assert codes == [0, 0, 0], codes
assert "numpy" not in sys.modules, "numpy was loaded"
"""

# Runs the code in argv[1] with argv[2:] as its argv, then prints the
# radpriors modules and the costly ones it left in sys.modules as the last
# line: numpy, and dataclasses with the inspect it imports.
_LOADED_AFTER = """
import json, sys
code, sys.argv = sys.argv[1], sys.argv[1:]
exec(code)
print(json.dumps(sorted(name for name in sys.modules
                        if name in ("numpy", "dataclasses", "inspect")
                        or name.startswith("radpriors"))))
"""
_RUN_CLI = "from radpriors.cli import run; assert run(sys.argv[1:]) == 0"


def _loaded_after(code, *argv):
    """The radpriors, numpy, dataclasses and inspect modules loaded by
    ``code`` run in a fresh interpreter."""
    src = str(Path(radpriors.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, code, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


class TestImports:
    def test_only_infuse_demo_loads_numpy(self, tmp_path):
        src = str(Path(radpriors.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", _LABEL_EVAL_ANALYZE, str(FIXTURES),
             str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        for name in ("labels.jsonl", "metrics.json", "analysis.json",
                     "scores.csv", "plot.csv", "plot.json"):
            assert (tmp_path / name).exists(), name

    @pytest.mark.parametrize("code", [
        "import radpriors",
        "import radpriors; radpriors.__version__",
        "from radpriors import __version__",
    ])
    def test_package_import_loads_no_submodule(self, code):
        assert _loaded_after(code) == {"radpriors"}

    def test_exported_name_loads_only_its_home(self):
        assert _loaded_after("import radpriors; radpriors.RuleSet") == \
            {"radpriors", "radpriors._io", "radpriors.rules"}

    @pytest.mark.parametrize("argv, modules", [
        (["label", "--in", FIXTURES / "golden4.jsonl", "--out", "OUT/l.jsonl"],
         {"corpus", "labeler", "rules"}),
        (["eval", "--in", FIXTURES / "eval3.jsonl", "--out", "OUT/m.json",
          "--csv", "OUT/m.csv"],
         {"corpus", "metrics"}),
        (["analyze", "--in", FIXTURES / "pipeline6.jsonl",
          "--out", "OUT/a.json", "--plot-data", "OUT/p.csv"],
         {"analysis", "corpus", "labeler", "metrics", "rules"}),
        (["infuse-demo", "--grad-check", "--emit-latents", "OUT/l.json"],
         {"infusion"}),
        (["--version"], {"corpus", "rules"}),
    ], ids=["label", "eval", "analyze", "infuse-demo", "version"])
    def test_each_command_loads_only_its_modules(self, argv, modules,
                                                 tmp_path):
        argv = [str(arg).replace("OUT", str(tmp_path)) for arg in argv]
        loaded = _loaded_after(_RUN_CLI, *argv)
        expected = {"radpriors", "radpriors._io", "radpriors.cli",
                    *(f"radpriors.{name}" for name in modules)}
        if "infusion" in modules:
            # numpy imports inspect itself.
            expected |= {"numpy", "inspect"}
        assert loaded == expected


class TestLazyExports:
    def test_every_export_is_its_home_attribute(self):
        for name in radpriors.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(
                f"radpriors.{radpriors._HOMES[name]}")
            assert getattr(radpriors, name) is getattr(home, name), name
            assert getattr(home, name).__module__ == home.__name__, name

    def test_all_lists_the_public_api(self):
        assert radpriors.__all__ == [
            "__version__",
            "CorpusError", "CorpusRecord", "Report", "extract_findings",
            "load_corpus", "make_report", "split_sentences", "tokenize",
            "ClassifiedMention", "LabelCounts", "Mention", "PriorLabel",
            "Verdict", "aggregate", "classify_mentions", "extract_mentions",
            "label_corpus", "label_report",
            "CorpusScores", "EvaluationError", "MetricReport", "ReportScores",
            "bleu", "cider", "evaluate_corpus", "rouge_l",
            "RuleFileError", "RuleSet", "default_rules", "load_rules",
        ]

    def test_star_import_and_dir_agree(self):
        namespace = {}
        exec("from radpriors import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == dir(radpriors)
        assert set(namespace) == set(radpriors.__all__)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            radpriors.no_such_name


class TestEvalCommand:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        csv_out = tmp_path / "metrics.csv"
        code = run(["eval", "--in", str(FIXTURES / "eval3.jsonl"),
                    "--out", str(out), "--csv", str(csv_out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["per_report"]) == 3
        assert report["per_report"][0]["bleu4"] == 1.0
        header = csv_out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id,bleu1,bleu2,bleu3,bleu4,rouge_l,cider,label"
        capsys.readouterr()

    def test_csv_ids_read_back_as_json_ids(self, tmp_path, capsys):
        corpus = tmp_path / "ids.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": id_, "text": "x", "reference": "a b c",
                        "candidate": "a b"}) + "\n"
            for id_ in ("a,b", 'q"x', "plain")), encoding="utf-8")
        out = tmp_path / "metrics.json"
        csv_out = tmp_path / "metrics.csv"
        assert run(["eval", "--in", str(corpus), "--out", str(out),
                    "--csv", str(csv_out)]) == 0
        with open(csv_out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        per_report = json.loads(out.read_text(encoding="utf-8"))["per_report"]
        assert [row["id"] for row in rows] == ["a,b", 'q"x', "plain"]
        for row, want in zip(rows, per_report):
            assert None not in row
            assert float(row["rouge_l"]) == want["rouge_l"]
        assert csv_out.read_text(encoding="utf-8").splitlines()[3] \
            .startswith("plain,")
        capsys.readouterr()

    def test_gold_labels_flag(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = run(["eval", "--in", str(FIXTURES / "pipeline3.jsonl"),
                    "--out", str(out), "--gold-labels"])
        assert code == 0
        rows = json.loads(out.read_text(encoding="utf-8"))["per_report"]
        assert [row["label"] for row in rows] == [0, 1, 0]
        capsys.readouterr()


class TestAnalyzeCommand:
    def test_summary_payload(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        code = run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["metric"] == "bleu4"
        assert payload["counts"] == {"negative": 4, "positive": 2, "total": 6}
        assert payload["positive_mean_below_negative"] is True
        assert payload["stratified"]["negative"]["count"] == 4
        capsys.readouterr()

    def test_mean_token_length_is_the_candidates(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        assert run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert "length_stats" not in payload
        # Candidates f2 and f3 (6 and 7 tokens) label 1; f1, f4, f5 and
        # f6 (6, 5, 6 and 6 tokens) label 0.
        assert payload["stratified"]["negative"]["mean_token_length"] == 23 / 4
        assert payload["stratified"]["positive"]["mean_token_length"] == 13 / 2
        capsys.readouterr()

    def test_plot_data_files(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        plot = tmp_path / "plot.csv"
        run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
             "--out", str(out), "--plot-data", str(plot)])
        assert plot.exists()
        assert plot.with_suffix(".json").exists()
        capsys.readouterr()

    def test_cider_metric_uses_wider_range(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
             "--out", str(out), "--metric", "cider"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["stratified"]["metadata"]["range"] == [0.0, 10.0]
        capsys.readouterr()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        def plot(out):
            return out.with_name(out.stem + "-plot.csv")
        for out in (first, second):
            assert run(["analyze", "--in", str(FIXTURES / "pipeline6.jsonl"),
                        "--out", str(out), "--plot-data", str(plot(out))]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert plot(first).read_bytes() == plot(second).read_bytes()
        assert plot(first).with_suffix(".json").read_bytes() == \
            plot(second).with_suffix(".json").read_bytes()
        capsys.readouterr()


class TestInfuseDemoCommand:
    def test_prints_tokens_and_grad_error(self, capsys):
        code = run(["infuse-demo", "--seed", "17", "--prior", "1",
                    "--grad-check"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "tokens=" in printed
        assert "max relative error" in printed

    def test_emit_latents(self, tmp_path, capsys):
        out = tmp_path / "latents.json"
        code = run(["infuse-demo", "--seed", "17", "--prior", "0",
                    "--emit-latents", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"seed", "prior", "tokens", "latent",
                                "latent_infused"}
        assert payload["latent"] == payload["latent_infused"]
        capsys.readouterr()

    def test_deterministic_latents(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["infuse-demo", "--seed", "3", "--prior", "1",
                 "--emit-latents", str(out)])
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


class TestPipeline:
    def test_again_noted_candidate_is_the_only_positive(self):
        records = load_corpus(FIXTURES / "pipeline3.jsonl")
        result = pipeline_label_then_eval(records)
        assert [row.label for row in result.metrics.per_report] == [0, 1, 0]

    def test_identical_pairs_give_unit_means(self):
        records = load_corpus(FIXTURES / "pipeline3.jsonl")
        identical = [r for r in records if r.candidate == r.reference]
        result = pipeline_label_then_eval(identical)
        assert result.summary.negative.mean == 1.0
        assert result.summary.positive is None

    def test_unknown_metric_rejected(self):
        records = load_corpus(FIXTURES / "pipeline3.jsonl")
        with pytest.raises(ValueError):
            pipeline_label_then_eval(records, metric="meteor")

    def test_counts_match_labels(self):
        records = load_corpus(FIXTURES / "pipeline6.jsonl")
        result = pipeline_label_then_eval(records)
        assert result.counts.total == 6
        assert result.counts.positive == \
            sum(l.value for l in result.labels)


# One invocation of each command per exit code, run in an empty working
# directory so outputs and messages name the same relative paths.
_EXIT_CASES = {
    ("label", 0): ["label", "--in", FIXTURES / "golden4.jsonl",
                   "--out", "labels.jsonl", "--summary", "summary.json"],
    ("label", 1): ["label", "--in", FIXTURES / "golden4.jsonl",
                   "--out", "labels.jsonl", "--label-on", "bogus"],
    ("label", 2): ["label", "--in", "absent.jsonl", "--out", "labels.jsonl"],
    ("eval", 0): ["eval", "--in", FIXTURES / "eval3.jsonl",
                  "--out", "metrics.json", "--csv", "scores.csv"],
    ("eval", 1): ["eval", "--in", FIXTURES / "eval3.jsonl"],
    ("eval", 2): ["eval", "--in", FIXTURES / "golden4.jsonl",
                  "--out", "metrics.json"],
    ("analyze", 0): ["analyze", "--in", FIXTURES / "pipeline6.jsonl",
                     "--out", "analysis.json", "--csv", "scores.csv",
                     "--plot-data", "plot.csv"],
    ("analyze", 1): ["analyze", "--in", FIXTURES / "pipeline6.jsonl",
                     "--out", "analysis.json", "--bins", "0"],
    ("analyze", 2): ["analyze", "--in", FIXTURES / "pipeline6.jsonl",
                     "--out", "analysis.json", "--rules", "absent.rules"],
    ("infuse-demo", 0): ["infuse-demo", "--grad-check",
                         "--emit-latents", "latents.json"],
    ("infuse-demo", 1): ["infuse-demo", "--seed", "-1"],
    ("infuse-demo", 2): ["infuse-demo", "--max-len", "0"],
}
_COMMANDS = ("label", "eval", "analyze", "infuse-demo")

# The reference exit path: ``run`` and then the interpreter's teardown.
_RUN_THEN_TEARDOWN = ["-c", "import sys; from radpriors.cli import run; "
                            "sys.exit(run(sys.argv[1:]))"]
_MAIN = ["-m", "radpriors.cli"]


def _cli_process(entry, argv, workdir, sink, unbuffered):
    """Exit code, stdout, stderr and output files of one CLI process run
    in the new directory ``workdir``.

    ``sink`` is where stdout goes: "pipe", "file", "closed" (``>&-``) or
    "broken" (a pipe whose reader has closed). stderr goes to a pipe, to
    a file with "file", and to the same broken pipe with "broken-both".
    """
    env = {**os.environ,
           "PYTHONPATH": str(Path(radpriors.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, *entry, *map(str, argv)]
    workdir.mkdir()
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if sink == "closed":
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    elif sink.startswith("broken"):
        reader, streams["stdout"] = os.pipe()
        os.close(reader)
        if sink == "broken-both":
            streams["stderr"] = streams["stdout"]
    elif sink == "file":
        streams = {name: open(f"{workdir}.{name}", "w+b")
                   for name in ("stdout", "stderr")}
    try:
        done = subprocess.run(command, cwd=workdir, env=env, **streams)
    finally:
        if sink.startswith("broken"):
            os.close(streams["stdout"])
    if sink == "file":
        for name, handle in streams.items():
            with handle:
                handle.seek(0)
                setattr(done, name, handle.read())
    files = {path.name: path.read_bytes() for path in workdir.iterdir()}
    return done.returncode, done.stdout, done.stderr, files


class TestProcessExit:
    """``python -m radpriors.cli`` ends with ``os._exit`` after ``run``."""

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["pipe", "file"])
    @pytest.mark.parametrize("case", sorted(_EXIT_CASES),
                             ids=lambda case: f"{case[0]}-{case[1]}")
    def test_outputs_and_exit_code_are_those_of_run(
            self, case, sink, unbuffered, tmp_path, monkeypatch, capsys):
        argv = [str(arg) for arg in _EXIT_CASES[case]]
        process = _cli_process(_MAIN, argv, tmp_path / "process", sink,
                               unbuffered)
        (tmp_path / "in-process").mkdir()
        monkeypatch.chdir(tmp_path / "in-process")
        code = run(argv)
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes()
                 for path in Path.cwd().iterdir()}
        assert code == case[1]
        assert process == (code, out.encode(), err.encode(), files)
        assert out if code == 0 else err
        assert bool(files) == (code == 0)

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["closed", "broken"])
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_lost_stdout_ends_as_before(self, command, sink, unbuffered,
                                        tmp_path, monkeypatch, capsys):
        argv = [str(arg) for arg in _EXIT_CASES[command, 0]]
        process = _cli_process(_MAIN, argv, tmp_path / "main", sink,
                               unbuffered)
        before = _cli_process(_RUN_THEN_TEARDOWN, argv, tmp_path / "before",
                              sink, unbuffered)
        code, _, err, files = process
        assert files == before[3]
        # Every command writes its files before it prints, so a lost
        # stdout loses none of them (infuse-demo's latents included).
        (tmp_path / "in-process").mkdir()
        monkeypatch.chdir(tmp_path / "in-process")
        assert run(argv) == 0
        capsys.readouterr()
        assert files == {path.name: path.read_bytes()
                         for path in Path.cwd().iterdir()}
        if sink == "closed":
            assert (code, err) == (0, b"") == (before[0], before[2])
        else:
            # Unbuffered, print raises inside run, which reports it as a
            # data error; buffered, main's flush fails and reports it alike.
            # Teardown alone would end the buffered process with 120.
            assert (code, err) == (2, b"error: [Errno 32] Broken pipe\n")
            assert before[0] == (2 if unbuffered else 120)

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_lost_stdout_and_stderr_exit_2(self, command, unbuffered,
                                           tmp_path, monkeypatch, capsys):
        argv = [str(arg) for arg in _EXIT_CASES[command, 0]]
        code, _, _, files = _cli_process(_MAIN, argv, tmp_path / "main",
                                         "broken-both", unbuffered)
        # Unbuffered, run's own report of the failed print fails too.
        assert code == 2
        (tmp_path / "in-process").mkdir()
        monkeypatch.chdir(tmp_path / "in-process")
        assert run(argv) == 0
        capsys.readouterr()
        assert files == {path.name: path.read_bytes()
                         for path in Path.cwd().iterdir()}
