"""Pieces every command loads: the data-error base and atomic writes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


class DataError(ValueError):
    """Input data the program cannot use; the CLI exits 2 on it.

    Each module's own error class derives from it, so the CLI catches
    one class without importing the modules a command does not run.
    """


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename.

    A failed run never leaves a partially written file at ``path``.
    """
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=f".{path.name}.",
        suffix=".tmp", delete=False)
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
