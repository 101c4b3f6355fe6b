"""Pieces every command loads: name tables, data errors, lines, files.

This module spells every output file (:func:`indented_json`,
:func:`csv_text`) and writes them all or none (:func:`write_files`).

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
import stat
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


def write_files(files: dict[str | Path, str]) -> None:
    """Write each text to its path, all or none.

    Each text goes first to a temp file where ``open(path, "w")`` would
    create the file, so a path ``open`` refuses fails as it fails; a path
    that ends in a separator or is a directory is then refused as one, and
    any other error ``os.stat`` gives on a path but its absence (a name
    too long, a loop of links) is raised. Only once all are written is
    each temp file renamed onto its path, in order. A failure leaves no
    temp file, and no path changed unless a rename failed; its
    ``OSError`` names the path as given. A symbolic link at a path
    becomes a regular file, its target unchanged, and each file gets a
    plain ``open``'s mode: 0o666 less the umask.
    """
    temps: list[tuple[str, str]] = []  # (temp, path) not yet renamed
    try:
        for path, text in files.items():
            name = os.fspath(path)
            # The parent as ``open`` finds it: "d/." is in "d".  A temp
            # name of fixed length fits wherever the target's name fits.
            parent = os.path.dirname(name.rstrip(os.sep))
            temp = os.path.join(parent or os.curdir,
                                f".{os.urandom(8).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as handle:
                temps.append((temp, name))
                try:
                    if name.endswith(os.sep) or \
                            stat.S_ISDIR(os.stat(name).st_mode):
                        raise IsADirectoryError(errno.EISDIR,
                                                os.strerror(errno.EISDIR))
                except FileNotFoundError:
                    pass
                handle.write(text)
        while temps:
            temp, name = temps[0]
            os.replace(temp, name)
            del temps[0]
    except BaseException as exc:
        for temp, _ in temps:
            os.unlink(temp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, name) from exc
        raise
