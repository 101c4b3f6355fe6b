"""Golden gate cases: CLI outputs stay byte-identical to recorded digests.

Each case runs one command in-process through ``cli.run`` and records
the SHA-256 of every output file, of stdout and of stderr, plus the exit
code. The inputs are the fixtures and ``bench/gen.py`` corpora: seed 3 at
full size, seeds 5 and 11 at a reduced ``count``; ``infuse-demo`` reads
none and runs the bench's seeds. Each corpus and rules file under
``fixtures/errors`` holds a data error, so its cases pin an exit code
and a message; three hold two, to pin which comes first. The digests
hold the Python version they were made under, and numpy's (null where
numpy could not be imported), which the ``infuse-demo`` arithmetic
follows.

This module imports no pytest; ``test_golden.py`` runs its cases as
tests. Run every case against the digests under the running interpreter,
whatever its version, printing both Python and both numpy versions and
listing each case that differs (the ``infuse-demo`` cases are skipped
where numpy cannot be imported):

    PYTHONPATH=src python tests/golden_cases.py --check

After an intended output change, regenerate the digests and list each
changed case as an output change in CHANGES.md:

    PYTHONPATH=src python tests/golden_cases.py --regenerate
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

from radpriors.cli import run

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
ERRORS = FIXTURES / "errors"
DIGESTS = HERE / "golden" / "digests.json"
BENCH_GEN = HERE.parent / "bench" / "gen.py"
REGENERATE = "PYTHONPATH=src python tests/golden_cases.py --regenerate"


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_gen()

# Input name -> how to make it: a fixture file, or a generated corpus as
# (workload, seed, count); a count of None is the bench's full size.
INPUTS = {f"fixtures/{path.name}": path
          for path in sorted(FIXTURES.glob("*.jsonl"))}
INPUTS.update({f"errors/{path.name}": path for path in sorted(
    [*ERRORS.glob("*.jsonl"), *ERRORS.glob("*.csv")])})
for _workload, _reduced in (("label-reports", 1000), ("analyze-long", 50),
                            ("eval-pairs", 100)):
    for _seed, _count in ((3, None), (5, _reduced), (11, _reduced)):
        _size = "full" if _count is None else f"n{_count}"
        INPUTS[f"gen/{_workload}/seed{_seed}-{_size}"] = \
            (_workload, _seed, _count)


def _inputs(*prefixes: str) -> list[str]:
    return [name for name in INPUTS if name.startswith(prefixes)]


# Command name -> (argv after ``--in INPUT``, the inputs it runs on, where
# "" is none); ``{dir}`` is the case's own output directory. Each output
# file is digested under its option name.
COMMANDS = {
    "eval --csv": (["eval", "--out", "{dir}/out", "--csv", "{dir}/csv"],
                   _inputs("fixtures/", "gen/eval-pairs/")),
}
for _field in ("text", "reference", "candidate"):
    COMMANDS[f"label --label-on {_field}"] = (
        ["label", "--label-on", _field, "--out", "{dir}/out"],
        _inputs("fixtures/", "gen/label-reports/", "gen/analyze-long/"))
# The metric changes only the stratified summary, so the three besides the
# bench's rouge_l run on the fixtures and one reduced corpus alone.
for _metric in ("rouge_l", "cider", "bleu4", "bleu1"):
    COMMANDS[f"analyze --csv --plot-data --metric {_metric}"] = (
        ["analyze", "--metric", _metric, "--out", "{dir}/out",
         "--csv", "{dir}/csv", "--plot-data", "{dir}/plot-data.csv"],
        _inputs("fixtures/", "gen/analyze-long/" if _metric == "rouge_l"
                else "gen/analyze-long/seed5-"))
# infuse-demo reads no input: the bench's decodes, and a refused --max-len.
for _seed in GEN.INFUSE_SEEDS:
    for _prior in (0, 1):
        COMMANDS[f"infuse-demo --grad-check --emit-latents "
                 f"--seed {_seed} --prior {_prior}"] = (
            ["infuse-demo", "--seed", str(_seed), "--prior", str(_prior),
             "--grad-check", "--emit-latents", "{dir}/emit-latents"], [""])
COMMANDS["infuse-demo --max-len 0"] = (["infuse-demo", "--max-len", "0"],
                                       [""])
# Every command that reads a corpus refuses a bad one at load, before its
# options matter, so one form of each runs the error inputs.
for _command in ("eval --csv", "label --label-on text",
                 "analyze --csv --plot-data --metric rouge_l"):
    COMMANDS[_command][1].extend(_inputs("errors/"))
# A refused rules file, on a corpus that loads.
for _rules in sorted(ERRORS.glob("*.rules")):
    COMMANDS[f"label --rules errors/{_rules.name}"] = (
        ["label", "--rules", str(_rules), "--out", "{dir}/out"],
        ["fixtures/golden4.jsonl"])

CASES = sorted(f"{command} < {name}" if name else command
               for command, (_, names) in COMMANDS.items() for name in names)


def _numpy_version() -> str | None:
    """The importable numpy's version, or None where it cannot be imported."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_inputs(root: Path) -> dict[str, Path]:
    """Write the generated corpora under ``root``; map input names to files."""
    paths = {}
    for name, source in INPUTS.items():
        if isinstance(source, Path):
            paths[name] = source
            continue
        out_dir = root / name.replace("/", "_")
        truth = GEN.generate(source[0], source[1], out_dir, source[2])
        paths[name] = out_dir / truth["input"]
    return paths


def run_case(case: str, inputs: dict[str, Path], workdir: Path) -> dict:
    """Run one case in ``workdir``; return its exit code and digests."""
    command, _, name = case.partition(" < ")
    workdir.mkdir(parents=True)
    argv = [part.replace("{dir}", str(workdir))
            for part in COMMANDS[command][0]]
    if name:
        path = inputs[name]
        argv[1:1] = ["--in", str(path)]
        if path.suffix == ".csv":
            argv[1:1] = ["--format", "csv"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    files = {path.name: _sha256(path.read_bytes())
             for path in sorted(workdir.iterdir())}
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
        "files": files,
    }


def differences(got: dict, want: dict) -> list[str]:
    """The parts of a case's result that differ from its recorded digests."""
    differing = [part for part in ("exit", "stdout", "stderr")
                 if got[part] != want[part]]
    differing += [f"file {name}" for name in
                  sorted(set(got["files"]) | set(want["files"]))
                  if got["files"].get(name) != want["files"].get(name)]
    return differing


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = make_inputs(root / "inputs")
        cases = {case: run_case(case, inputs, root / f"case{index}")
                 for index, case in enumerate(CASES)}
    payload = {"python": platform.python_version(),
               "numpy": _numpy_version(), "cases": cases}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def check() -> int:
    """Run every case against the digests; print each that differs.

    Returns 1 if any case differs or the digests hold another case set,
    else 0.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    print(f"digests made under Python {recorded['python']}, "
          f"running Python {platform.python_version()}")
    running_numpy = _numpy_version()
    print(f"digests made under numpy {recorded['numpy']}, "
          f"running numpy {running_numpy}")
    skip = () if running_numpy else ("infuse-demo",)
    cases = [case for case in CASES if not case.startswith(skip)]
    stale = sorted(set(recorded["cases"]) - set(CASES))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = make_inputs(root / "inputs")
        for index, case in enumerate(cases):
            want = recorded["cases"].get(case)
            if want is None:
                failed.append(f"{case}: no recorded digests")
                continue
            differing = differences(
                run_case(case, inputs, root / f"case{index}"), want)
            if differing:
                failed.append(f"{case}: differs in " + ", ".join(differing))
    for line in failed + [f"{case}: recorded, but no longer a case"
                          for case in stale]:
        print(line)
    print(f"{len(cases) - len(failed)} of {len(cases)} cases match")
    if skip:
        print(f"{len(CASES) - len(cases)} infuse-demo cases skipped: "
              "numpy cannot be imported")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit(f"usage: {sys.argv[0]} --check | --regenerate")
