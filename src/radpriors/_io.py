"""Pieces every command loads: text fields, data errors, lines, files."""

from __future__ import annotations

import errno
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

_UTF8_BOM = b"\xef\xbb\xbf"
# The corpus fields that hold report text; records also have an id and label.
TEXT_FIELDS = ("text", "reference", "candidate")


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


def check_target(path: str | Path) -> None:
    """Raise the error :func:`atomic_write_text` meets if ``path`` is a
    directory or its parent is missing or not a directory."""
    try:
        # A trailing separator makes a parent that is a file an error.
        os.stat(os.path.join(Path(path).parent, ""))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename.

    A failed write leaves neither part of a file at ``path`` nor the
    temp file, and its ``OSError`` names ``path`` as given. The file's
    mode is a plain ``open``'s: 0o666 less the umask.
    """
    target = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=target.parent,
            prefix=f".{target.name}.", suffix=".tmp", delete=False)
        try:
            with handle:
                handle.write(text)
            os.chmod(handle.name, 0o666 & ~umask)
            os.replace(handle.name, target)
        except BaseException:
            os.unlink(handle.name)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
