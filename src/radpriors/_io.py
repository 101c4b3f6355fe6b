"""Pieces every command loads: name tables, data errors, lines, files.

This module spells every output file (:func:`indented_json`,
:func:`csv_text`) and writes it (:func:`atomic_write_text`).

Three tables name what the other modules share: ``TEXT_FIELDS``, the
corpus fields that hold report text; ``CORPUS_FORMATS``, the corpus file
formats; and ``METRIC_NAMES``, the metrics as every output names them.
So do the defaults the parser shares with the library: ``DEFAULT_FORMAT``,
``DEFAULT_TEXT_FIELD``, ``DEFAULT_METRIC``, ``DEFAULT_BINS`` and
``DEFAULT_SEED``. They live here because every command builds the whole
parser, and no command may load a module it does not run.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

_UTF8_BOM = b"\xef\xbb\xbf"
# The corpus fields that hold report text; records also have an id and label.
TEXT_FIELDS = ("text", "reference", "candidate")
CORPUS_FORMATS = ("jsonl", "csv")
METRIC_NAMES = ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider")
DEFAULT_FORMAT = "jsonl"
DEFAULT_TEXT_FIELD = "text"
DEFAULT_METRIC = "bleu4"
DEFAULT_BINS = 20
DEFAULT_SEED = 17


class DataError(ValueError):
    """Input data the program cannot use; the CLI exits 2 on it.

    Each module's own error class derives from it, so the CLI catches
    one class without importing the modules a command does not run.
    ``line`` and ``byte_offset`` locate it in its input file when known:
    ``line N: … (byte offset B)``.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 byte_offset: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
            if byte_offset is not None:
                message += f" (byte offset {byte_offset})"
        super().__init__(message)
        self.line = line
        self.byte_offset = byte_offset


def split_cr(raw_lines: Iterable[bytes]) -> Iterator[bytes]:
    """End lines at a lone ``\\r`` too, as well as at ``\\n`` and
    ``\\r\\n``: the line ends of the ``csv`` module and of text files."""
    for raw_line in raw_lines:
        yield from raw_line.splitlines(keepends=True)


def utf8_lines(raw_lines: Iterable[bytes], error: type[DataError]
               ) -> Iterator[tuple[int, int, str]]:
    """(line number, byte offset, text) of each raw line, past a leading
    BOM; a line that is not UTF-8 raises ``error`` at its location."""
    offset = 0
    for line_no, raw_line in enumerate(raw_lines, start=1):
        line_offset = offset
        offset += len(raw_line)
        if line_no == 1:
            raw_line = raw_line.removeprefix(_UTF8_BOM)
        try:
            text_line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"invalid UTF-8: {exc}", line=line_no,
                        byte_offset=line_offset) from exc
        yield line_no, line_offset, text_line


def indented_json(obj: object) -> str:
    """``obj`` as every indented JSON output file holds it."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_text(rows: Iterable[Iterable[object]]) -> str:
    """``rows`` as every CSV output file holds them: lines end with
    ``\\n``, a float is written as its ``repr`` and None as an empty cell."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def check_target(path: str | Path) -> None:
    """Raise the error ``open(path, "w")`` meets if ``path`` is empty, is
    a directory or ends in a separator, or its parent is missing or not a
    directory. :func:`atomic_write_text` meets the same errors, but
    refuses a trailing separator as not a directory."""
    name = os.fspath(path)
    try:
        # The parent as ``open`` finds it: "d/." is in "d", and "" has none.
        # A trailing separator makes a parent that is a file an error.
        parent = os.path.dirname(name.rstrip(os.sep)) or os.curdir
        os.stat(os.path.join(parent, "") if name else name)
        if name.endswith(os.sep) or os.path.isdir(name):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, name) from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename.

    A failed write leaves neither part of a file at ``path`` nor the
    temp file, and its ``OSError`` names ``path`` as given. The rename
    replaces ``path`` itself, so a symbolic link there becomes a regular
    file and its target is left unchanged; a ``path`` that ends in a
    separator is refused. The file's mode is a plain ``open``'s: 0o666
    less the umask.
    """
    target = Path(path)
    temp = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
    try:
        handle = open(temp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
