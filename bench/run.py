"""The radpriors benchmark: seeded CLI workloads, checked and timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload label-reports --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 0

``--trace 0`` drives the CLI from outside as a closed loop: one client,
one ``python3 -m radpriors.cli`` process at a time, the next started when
the previous has exited.  Every invocation's outputs are checked against
the generator's planted truth.  It reports, per workload:

* ``items_per_s``: records (or, for ``infuse-demo``, decodes) per second
  of CLI wall time, process start to exit, at the workload's input size:
  all items of the run's full-size invocations over their summed wall
  time;
* ``setup_s``: wall time of the same command on a one-record input, the
  fixed cost of one invocation; the median over the run's probes;
* ``peak_rss_mb``: peak RSS of each full-size CLI process from
  ``os.wait4``; the median over the run's invocations.

``--trace 1`` runs the same command in this process instead, alternating
plain and traced invocations (see ``spans.py``), and reports the
per-layer metrics of the traced ones plus ``trace.overhead_share``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs and
outputs live under ``.bench_build/`` in the checkout.  The program is
the checkout's own ``src/`` tree; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "radpriors"
TIMEOUT_S = 45.0
IMPORT_PROBES = 5

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, how it is read from a traced invocation).
# "total"/"self" read span times, "count" a counter.
PER_LAYER = {
    "corpus.load_corpus_s": ("s", "total", "corpus.load_corpus"),
    "corpus.make_report_s": ("s", "total", "corpus.make_report"),
    "corpus.tokenize_calls": ("count", "count", "corpus.tokenize.calls"),
    "corpus.records": ("count", "count", "corpus.records"),
    "corpus.sentences": ("count", "count", "corpus.sentences"),
    "corpus.tokens": ("count", "count", "corpus.tokens"),
    "rules.default_rules_s": ("s", "total", "rules.default_rules"),
    "rules.match_calls": ("count", "count", "rules.RuleTemplate.match.calls"),
    "rules.match_hits": ("count", "count", "rules.match_hits"),
    "rules.keyword_match_calls": ("count", "count",
                                  "rules.KeywordEntry.matches.calls"),
    "labeler.extract_mentions_s": ("s", "total", "labeler.extract_mentions"),
    "labeler.classify_mentions_s": ("s", "total",
                                    "labeler.classify_mentions"),
    "labeler.aggregate_s": ("s", "total", "labeler.aggregate"),
    "labeler.label_corpus_self_s": ("s", "self", "labeler.label_corpus"),
    "labeler.mentions": ("count", "count", "labeler.mentions"),
    "labeler.mentions_prior": ("count", "count",
                               "labeler.mentions_prior_expression"),
    "labeler.mentions_negated": ("count", "count", "labeler.mentions_negated"),
    "labeler.mentions_irrelevant": ("count", "count",
                                    "labeler.mentions_irrelevant"),
    "metrics.cider_s": ("s", "total", "metrics.cider"),
    "metrics.bleu_s": ("s", "total", "metrics.bleu"),
    "metrics.rouge_l_s": ("s", "total", "metrics.rouge_l"),
    "metrics.evaluate_corpus_s": ("s", "total", "metrics.evaluate_corpus"),
    "metrics.evaluate_corpus_self_s": ("s", "self",
                                       "metrics.evaluate_corpus"),
    "metrics.pairs": ("count", "count", "metrics.pairs"),
    "metrics.lcs_cells": ("count", "count", "metrics.lcs_cells"),
    "analysis.stratify_s": ("s", "total", "analysis.stratify"),
    "analysis.length_stats_s": ("s", "total", "analysis.length_stats"),
    "analysis.emit_plot_data_s": ("s", "total", "analysis.emit_plot_data"),
    "cli.run_self_s": ("s", "self", "cli.run"),
    "cli.output_bytes": ("bytes", "count", "cli.output_bytes"),
    "infusion.forward_s": ("s", "total", "infusion.forward"),
    "infusion.grad_check_s": ("s", "total", "infusion.grad_check"),
    "infusion.decoded_tokens": ("count", "count", "infusion.decoded_tokens"),
}
# Ratios of the counters above, plus the two measured outside the spans.
DERIVED = {
    "rules.match_hit_ratio": "ratio",
    "labeler.prior_share": "ratio",
    "metrics.ngram_counts_calls_per_pair": "ratio",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
}


class Workload:
    """A CLI command over generated inputs, and the check of its outputs."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.truth = gen.generate(name, seed, self.dir / "input")
        self.out = self.dir / "out"
        self.checker = {"label-reports": checks.check_label,
                        "eval-pairs": checks.check_eval,
                        "analyze-long": checks.check_analyze,
                        "infuse-demo": checks.check_infuse}[name]
        self._decodes = self.truth.get("decodes", [])
        self._next = 0

    def invocation(self, one: bool) -> tuple[list[str], dict, int, str]:
        """(CLI arguments, truth, items, digest label) of the next invocation.

        ``one`` asks for the one-record input that times start-up.
        """
        if self.name == "infuse-demo":
            seed, prior = self._decodes[0 if one else self._next]
            if not one:
                self._next = (self._next + 1) % len(self._decodes)
            return (["infuse-demo", "--grad-check", "--seed", str(seed),
                     "--prior", str(prior)],
                    {"seed": seed, "prior": prior}, 1,
                    f"seed={seed} prior={prior}")
        truth = self.truth
        if one:
            first = truth["ids"][0]
            truth = {"ids": [first], "labels": truth["labels"][:1],
                     "identical": [i for i in truth["identical"] if i == first],
                     "disjoint": [i for i in truth["disjoint"] if i == first]}
        infile = str(self.dir / "input" /
                     self.truth["one" if one else "input"])
        out = self.out
        if self.name == "label-reports":
            argv = ["label", "--in", infile, "--out", str(out / "labels.jsonl")]
        elif self.name == "eval-pairs":
            argv = ["eval", "--format", "csv", "--in", infile,
                    "--out", str(out / "eval.json"),
                    "--csv", str(out / "scores.csv")]
        else:
            argv = ["analyze", "--metric", "rouge_l", "--in", infile,
                    "--out", str(out / "analyze.json"),
                    "--csv", str(out / "scores.csv"),
                    "--plot-data", str(out / "plot.csv")]
        return argv, truth, len(truth["ids"]), "one" if one else "main"

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def check(self, truth: dict, code: int, stdout: str,
              stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        try:
            return self.checker(truth, self.out, stdout)
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                IndexError) as exc:
            return [f"outputs unreadable: {exc!r}"]


class Tally:
    """Attempted and failed invocations, and output digests per role."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def record(self, label: str, problems: list[str],
               outputs: dict[str, bytes]) -> None:
        self.attempted += 1
        for name, data in sorted(outputs.items()):
            key = f"{label} {name}"
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                problems = problems + [f"{key} differs from its first run"]
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"FAIL {label}: {problem}", file=sys.stderr)


def _outputs(workload: Workload, stdout: str) -> dict[str, bytes]:
    files = {path.name: path.read_bytes()
             for path in sorted(workload.out.iterdir())}
    if workload.name == "infuse-demo":
        files["stdout"] = stdout.encode("utf-8")
    return files


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed hashing and one BLAS thread keep runs comparable on a small
    # machine; the benchmark is a single closed-loop client.
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], env: dict, log_dir: Path
          ) -> tuple[float, float, int, str, str]:
    """Run one child to completion: (wall s, peak RSS MB, exit, out, err).

    The child is reaped with ``os.wait4`` so its own peak RSS is read;
    one that outlives ``TIMEOUT_S`` is killed and reported as exit -9.
    """
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text("utf-8", "replace"),
            err_path.read_text("utf-8", "replace"))


def run_cli(workload: Workload, one: bool, tally: Tally, env: dict
            ) -> tuple[float, float, int]:
    """One checked CLI invocation: (wall s, peak RSS MB, items)."""
    argv, truth, items, label = workload.invocation(one)
    workload.fresh_out()
    wall, rss, code, stdout, stderr = spawn(
        [sys.executable, "-m", "radpriors.cli", *argv], env, workload.dir)
    problems = workload.check(truth, code, stdout, stderr)
    tally.record(label, problems, _outputs(workload, stdout))
    return wall, rss, items


def measure_cli(workload: Workload, seconds: float, tally: Tally) -> dict:
    """Closed loop for ``seconds``: a full-size run, then a one-record probe.

    ``items_per_s`` is all items over all full-size wall time, which is
    steadier than a median of per-invocation rates when the machine's
    speed drifts; ``setup_s`` and ``peak_rss_mb`` are medians.
    """
    env = _child_env()
    run_cli(workload, False, tally, env)  # warm-up: bytecode and page cache
    run_cli(workload, True, tally, env)
    walls, counts, rss, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls:
        wall, peak, count = run_cli(workload, False, tally, env)
        walls.append(wall)
        counts.append(count)
        rss.append(peak)
        setup.append(run_cli(workload, True, tally, env)[0])
    rates = [count / wall for count, wall in zip(counts, walls)]
    for name, values in (("full-size rate", rates), ("setup_s", setup),
                         ("peak_rss_mb", rss)):
        print(f"{workload.name} {name}: n={len(values)} "
              f"median {statistics.median(values):.6g} "
              f"min {min(values):.6g} max {max(values):.6g}")
    return {"items_per_s": sum(counts) / sum(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}


def _import_time(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import radpriors.cli; "
            "print(time.perf_counter() - t)")
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True,
                            timeout=TIMEOUT_S, check=True)
    return float(result.stdout)


def _in_process(workload: Workload, tally: Tally, cli) -> tuple[float, int]:
    """One checked in-process ``cli.run``: (wall s, items)."""
    argv, truth, items, label = workload.invocation(False)
    workload.fresh_out()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(argv)
        except Exception:  # counted as a failed invocation, with its trace
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    problems = workload.check(truth, code, stdout.getvalue(),
                              stderr.getvalue())
    tally.record(label, problems, _outputs(workload, stdout.getvalue()))
    return wall, items


def measure_trace(workload: Workload, seconds: float, tally: Tally) -> dict:
    """Alternate plain and traced in-process runs; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import radpriors.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"radpriors imported from {cli.__file__}, not {SRC}")
    env = _child_env()
    imports = [_import_time(env) for _ in range(IMPORT_PROBES)]
    tally.attempted += IMPORT_PROBES

    # The first run, which also warms caches, takes every count; the timed
    # runs record spans without the per-sentence and per-token counters.
    counted = spans.Recorder()
    with spans.instrument(counted, hot=True):
        _in_process(workload, tally, cli)
    counts = counted.counts
    recorder = spans.Recorder()
    plain, traced, samples = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        wall, items = _in_process(workload, tally, cli)
        plain.append(items / wall)
        recorder.clear()
        with spans.instrument(recorder, hot=False):
            wall, items = _in_process(workload, tally, cli)
        traced.append(items / wall)
        samples.append(_span_times(recorder))
    recorder.write(workload.dir / "spans.jsonl")
    print(f"{workload.name}: {len(traced)} traced and {len(plain)} plain "
          f"in-process runs, {IMPORT_PROBES} import probes; spans of the "
          f"last traced run in {workload.dir / 'spans.jsonl'}")

    values = {name: statistics.median(sample[name] for sample in samples)
              for name in samples[0]}
    values.update((name, counts[key])
                  for name, (_, kind, key) in PER_LAYER.items()
                  if kind == "count")
    values["rules.match_hit_ratio"] = _ratio(
        counts["rules.match_hits"], counts["rules.RuleTemplate.match.calls"])
    values["labeler.prior_share"] = _ratio(
        counts["labeler.mentions_prior_expression"],
        counts["labeler.mentions"])
    values["metrics.ngram_counts_calls_per_pair"] = _ratio(
        counts["metrics.ngram_counts.calls"], counts["metrics.pairs"])
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_share"] = 1.0 - (statistics.median(traced)
                                            / statistics.median(plain))
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span_times(recorder: spans.Recorder) -> dict[str, float]:
    times = recorder.layer_times()
    return {name: times.get(key, (0.0, 0.0))[kind == "self"]
            for name, (_, kind, key) in PER_LAYER.items() if kind != "count"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the result object the last line prints."""
    workload = Workload(name, seed)
    tally = Tally()
    metrics = {}
    if trace:
        values = measure_trace(workload, seconds, tally)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units.update(DERIVED)
        for metric, unit in units.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        values = measure_cli(workload, seconds, tally)
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"{name} {metric} = {values[metric]:.6g} {unit}")
    for key, digest in sorted(tally.digests.items()):
        print(f"sha256 {name} {key} {digest}")
    print(f"{name} fail_share = {tally.failed}/{tally.attempted} "
          "invocations")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run the radpriors benchmark from a checkout's root.")
    parser.add_argument("--workload", required=True,
                        choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "radpriors" / "cli.py").is_file():
        print(f"error: no radpriors source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
               for name in gen.WORKLOADS}
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:14} {metric:40} {value['value']:14.6g} "
                  f"{value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
