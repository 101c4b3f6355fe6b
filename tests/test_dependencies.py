"""Static audit of the package's imports: standard library and numpy only."""

import ast
import sys
from pathlib import Path

import radpriors

PACKAGE = Path(radpriors.__file__).resolve().parent


def imported_modules(path):
    """Top-level names of the absolute imports in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast and dis: 12-15 ms of each start-up.
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in imported_modules(path)]
    assert importers == []


def test_imports_are_stdlib_or_numpy_in_infusion():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        allowed = {"numpy"} if path.name == "infusion.py" else set()
        for module in imported_modules(path):
            if module not in sys.stdlib_module_names and module not in allowed:
                outside.append(f"{path.name}: {module}")
    assert outside == []


def decoding_sites(path):
    """Where ``path`` calls ``.decode(`` or ``.read_text(``, or names the
    ``utf-8-sig`` codec."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) \
                and func.attr in ("decode", "read_text"):
            yield f"{path.name}:{node.lineno}: .{func.attr}("
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.lower().replace("_", "-") == "utf-8-sig":
            yield f"{path.name}:{node.lineno}: {node.value!r}"


def test_only_io_decodes_input():
    # Corpora and rules files are read through one reader, in _io.
    sources = sorted(PACKAGE.glob("*.py"))
    assert "_io.py" in {path.name for path in sources}
    sites = [site for path in sources if path.name != "_io.py"
             for site in decoding_sites(path)]
    assert sites == []
