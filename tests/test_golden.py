"""Golden gate: CLI outputs stay byte-identical to recorded digests.

The cases, their inputs and the runner are in ``golden_cases.py``, which
imports no pytest and also runs them alone (``--check``). Under a Python
other than the one the digests were made under, every case fails here,
because float formatting and hashing may differ there. So each other
CPython 3.10 or later that is installed runs ``--check`` in a subprocess
instead: each pyenv version's ``python3`` and the ``python3.N`` commands
on PATH, one per minor version.
"""

import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radpriors
from golden_cases import (CASES, DIGESTS, HERE, REGENERATE, differences,
                          make_inputs, run_case)


SRC = str(Path(radpriors.__file__).resolve().parents[1])
_PROBE = ("import platform, sys; sys.stdout.write('%s %d %d %s' % ("
          "platform.python_implementation(), sys.version_info[0], "
          "sys.version_info[1], platform.python_version()))")


def other_interpreters() -> dict[str, str]:
    """Version -> executable of each installed CPython 3.10 or later, one
    per minor version, leaving out the running one's minor version.

    Each candidate's name gives the minor version it claims, so only the
    first candidate for a wanted one is run to confirm it.
    """
    candidates = []
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True).stdout.strip()
        if root:
            candidates += [(path.parts[-3], path) for path in sorted(
                Path(root).glob("versions/*/bin/python3"))]
    candidates += [(path.name[len("python"):], path)
                   for directory in os.get_exec_path()
                   for path in sorted(Path(directory).glob("python3.*"))]
    found: dict[tuple[int, int], tuple[str, str]] = {}
    for name, executable in candidates:
        claimed = re.match(r"(\d+)\.(\d+)(\.\d+)?$", name)
        if not claimed:
            continue
        minor = (int(claimed[1]), int(claimed[2]))
        if minor < (3, 10) or minor == sys.version_info[:2] or minor in found:
            continue
        try:
            probe = subprocess.run([executable, "-c", _PROBE],
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split()[:3] == [
                "CPython", *map(str, minor)]:
            found[minor] = (probe.stdout.split()[3], str(executable))
    return dict(found.values())


def pytest_generate_tests(metafunc):
    # At collection, not import, so importing this module runs nothing.
    if "other_python" in metafunc.fixturenames:
        found = sorted(other_interpreters().items())
        metafunc.parametrize("other_python", found,
                             ids=[version for version, _ in found])


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["python"] != platform.python_version():
        pytest.fail(
            f"the golden digests were made under Python {recorded['python']}, "
            f"not {platform.python_version()}; regenerate them at the parent "
            f"commit under this Python first: {REGENERATE}")
    return recorded["cases"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden-inputs"))


def test_digests_cover_every_case(golden):
    assert sorted(golden) == CASES


def test_cases_load_without_pytest():
    code = ("import json, sys; sys.modules['pytest'] = None; "
            "import golden_cases; print(json.dumps(golden_cases.CASES))")
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE,
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert json.loads(completed.stdout) == sorted(recorded["cases"])


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical(golden, inputs, tmp_path, case):
    differing = differences(run_case(case, inputs, tmp_path / "case"),
                            golden[case])
    assert not differing, f"{case}: differs in " + ", ".join(differing)


def test_cases_match_under_another_python(other_python):
    version, executable = other_python
    completed = subprocess.run(
        [executable, str(HERE / "golden_cases.py"), "--check"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert f"running Python {version}\n" in completed.stdout
