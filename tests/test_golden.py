"""Golden gate: CLI outputs stay byte-identical to recorded digests.

The cases, their inputs and the runner are in ``golden_cases.py``, which
imports no pytest and also runs them alone (``--check``). Under a Python
other than the one the digests were made under, every case fails here,
because float formatting and hashing may differ there.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import radpriors
from golden_cases import (CASES, DIGESTS, HERE, REGENERATE, differences,
                          make_inputs, run_case)


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
    src = str(Path(radpriors.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert json.loads(completed.stdout) == sorted(recorded["cases"])


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical(golden, inputs, tmp_path, case):
    differing = differences(run_case(case, inputs, tmp_path / "case"),
                            golden[case])
    assert not differing, f"{case}: differs in " + ", ".join(differing)
