"""Static audit of the package: its imports are the standard library and
numpy only, one module decodes input, one function writes output, and
the version is stated once."""

import ast
import sys
from pathlib import Path

import pytest

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


# Each costs every start-up that has not loaded it: dataclasses imports
# inspect, ast and dis (12-15 ms), and tempfile imports random and shutil
# (4-5 ms) to name one file.
@pytest.mark.parametrize("module", ["dataclasses", "tempfile"])
def test_no_module_imports(module):
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if module in imported_modules(path)]
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


def _mode_argument(call, index):
    """The mode an ``open`` call passes at ``index`` or as ``mode=``;
    ``"r"`` when it passes none, None when it is not a constant."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return getattr(keyword.value, "value", None)
    if len(call.args) > index:
        return getattr(call.args[index], "value", None)
    return "r"


class _WriteSites(ast.NodeVisitor):
    """Calls of ``write_files``, of ``csv.writer``, of the ``os``
    functions that rename or remove a file and calls that open a file for
    writing, each with the qualified name of the function around it."""

    MAKERS = {"write_text", "write_bytes", "NamedTemporaryFile",
              "TemporaryFile", "SpooledTemporaryFile", "mkstemp", "fdopen"}
    OS_MOVERS = {"replace", "rename", "unlink", "remove"}

    def __init__(self):
        self.scope = []
        self.writes = []
        self.csv_writers = []
        self.opens = []
        self.moves = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        where = ".".join(self.scope)
        is_os = getattr(getattr(func, "value", None), "id", "") == "os"
        if name == "write_files":
            self.writes.append(where)
        elif name == "writer":
            self.csv_writers.append(where)
        elif is_os and name in self.OS_MOVERS:
            self.moves.append(where)
        elif name == "open":
            mode = _mode_argument(node, 1 if isinstance(func, ast.Name) else 0)
            if is_os or not isinstance(mode, str) \
                    or set(mode) & set("wax+"):
                self.opens.append(f"{where}:{node.lineno}")
        elif name in self.MAKERS:
            self.opens.append(f"{where}:{node.lineno}")
        self.generic_visit(node)


def write_sites():
    """{module name: its _WriteSites} for each module of the package."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _WriteSites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"),
                                filename=str(path)))
        sites[path.stem] = visitor
    return sites


def test_only_cli_run_writes_output_files():
    # Commands return their files' texts; run writes them once, then
    # prints.
    writes = [(module, where) for module, sites in write_sites().items()
              for where in sites.writes]
    assert writes == [("cli", "run")]


def test_only_io_opens_files_for_writing():
    opens = {(module, site.partition(":")[0])
             for module, sites in write_sites().items()
             for site in sites.opens}
    assert opens == {("_io", "write_files")}


def test_only_io_write_files_renames_or_removes_files():
    # The temp files are renamed into place, or removed, in one place.
    moves = {(module, where) for module, sites in write_sites().items()
             for where in sites.moves}
    assert moves == {("_io", "write_files")}


def test_only_io_calls_csv_writer():
    # Every CSV output file is spelled by _io.csv_text, in one dialect.
    callers = [module for module, sites in write_sites().items()
               if sites.csv_writers]
    assert callers == ["_io"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_the_project_version_is_read_from_the_package():
    import tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {
        "version": {"attr": "radpriors.__version__"}}
