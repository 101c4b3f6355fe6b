"""CSV and JSONL files that hold the same records load and label alike.

The writers here are the tests' own: JSONL through ``json.dumps``, and
CSV cell by cell, quoting a cell only when it holds a comma, a quote or
a line break, with the records ending at ``\\n``, ``\\r\\n`` or a lone
``\\r``.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from radpriors.cli import run
from radpriors.corpus import CorpusRecord, load_corpus

BOM = b"\xef\xbb\xbf"
HEADER = ("id", "text", "reference", "candidate", "label")
# Written at the start of one record's id, then replaced by a byte that
# is not UTF-8.
MARKER = "\ue000"
INVALID = b"\xff"

PIECES = st.sampled_from([
    "Stable", " compared to prior exam", " again noted", "No prior study",
    ".", ",", '"', "'", " ", "\n", "\r\n", "\r", "\ufeff",
    "\u201cprior\u201d", "\u2026", "\u00ab", "\u2028", "\x85", "\x0c",
    "FINDINGS: ", "IMPRESSION: "])
TEXT = st.lists(st.one_of(PIECES, st.text(st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00" + MARKER),
    max_size=4)), max_size=8).map("".join)
# In CSV an empty optional cell means the field is absent.
OPTIONAL = st.one_of(st.none(), TEXT.filter(bool))
RECORDS = st.lists(
    st.builds(CorpusRecord, id=TEXT, text=TEXT, reference=OPTIONAL,
              candidate=OPTIONAL,
              gold_label=st.one_of(st.none(), st.sampled_from([0, 1]))),
    max_size=6, unique_by=lambda record: record.id)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def jsonl_lines(records):
    """One JSON object per record, absent fields left out."""
    lines = []
    for record in records:
        obj = {"id": record.id, "text": record.text}
        for name, value in zip(HEADER[2:], record[2:]):
            if value is not None:
                obj[name] = value
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    return lines


def _cell(value):
    if value is None:
        return ""
    value = str(value)
    if any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def csv_lines(records, newline):
    """The header and one row per record, each ended by ``newline``."""
    return [",".join(HEADER) + newline] + [
        ",".join(map(_cell, record)) + newline for record in records]


def encode(rows, bom):
    data = (BOM if bom else b"") + "".join(rows).encode("utf-8")
    return data.replace(MARKER.encode("utf-8"), INVALID)


def first_line_of(rows, index):
    """The line row ``index`` starts on; a line ends at ``\\n``, ``\\r\\n``
    or a lone ``\\r``."""
    return len("".join(rows[:index]).encode("utf-8").splitlines()) + 1


def label(path, format, workdir):
    """Exit code, stderr, stdout and output of ``label`` on ``path``."""
    out = workdir / f"labels-{format}.jsonl"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run(["label", "--format", format, "--in", str(path),
                    "--out", str(out)])
    written = out.read_bytes() if out.exists() else None
    return code, stderr.getvalue(), stdout.getvalue(), written


def write_both(workdir, records, newline, bom):
    """Write ``records`` as JSONL and as CSV; map format to (path, rows)."""
    files = {}
    for format, rows in (("jsonl", jsonl_lines(records)),
                         ("csv", csv_lines(records, newline))):
        path = workdir / f"corpus.{format}"
        path.write_bytes(encode(rows, bom))
        files[format] = (path, rows)
    return files


@settings(max_examples=100, deadline=None)
@given(RECORDS, NEWLINES, st.booleans())
def test_both_formats_load_and_label_alike(records, newline, bom):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = write_both(workdir, records, newline, bom)
        loaded = {format: load_corpus(path, format=format)
                  for format, (path, _) in files.items()}
        assert loaded["jsonl"] == loaded["csv"] == records
        labeled = {format: label(path, format, workdir)
                   for format, (path, _) in files.items()}
    assert labeled["jsonl"] == labeled["csv"]
    assert labeled["csv"][:2] == (0, "")


@settings(max_examples=100, deadline=None)
@given(RECORDS.filter(bool), NEWLINES, st.booleans(), st.data())
def test_an_invalid_byte_names_its_record_line_in_both(records, newline, bom,
                                                       data):
    index = data.draw(st.integers(0, len(records) - 1), label="index")
    records[index] = records[index]._replace(id=MARKER + records[index].id)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = write_both(workdir, records, newline, bom)
        lines = {}
        for format, (path, rows) in files.items():
            code, err, out, written = label(path, format, workdir)
            assert (code, out, written) == (2, "", None)
            # The CSV header is row 0, so the record is row index + 1.
            line = first_line_of(rows, index + (format == "csv"))
            assert err.startswith(f"error: line {line}: invalid UTF-8: ")
            lines[format] = line
    # Where no earlier cell breaks a line, CSV's header is the only shift.
    if not any(ch in "".join(map(_cell, record)) for record in
               records[:index] for ch in "\r\n"):
        assert lines["csv"] == lines["jsonl"] + 1 == index + 2
