"""Report ingestion: findings extraction, sentence splitting, tokenization.

Reports arrive as JSONL or CSV records with an ``id`` and a free-text
``text`` field, plus optional ``reference``, ``candidate``, and ``label``
columns. A :class:`CorpusRecord` holds these raw fields as loaded; a field
is normalized only when it is labeled. :func:`make_report` is the one
normalization chain: :func:`extract_findings`, then
:func:`split_sentences`, then :func:`tokenize` on each sentence.
"""

from __future__ import annotations

import csv
import json
import re
import string
import unicodedata
from collections import deque
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from ._io import TEXT_FIELDS, DataError, split_cr, utf8_lines

__all__ = [
    "CorpusError",
    "Report",
    "CorpusRecord",
    "extract_findings",
    "split_sentences",
    "tokenize",
    "make_report",
    "load_corpus",
]


class CorpusError(DataError):
    """Malformed corpus input. Carries the offending location when known."""


# Section headers recognized when carving out the findings section.
_FINDINGS_HEADER = "findings:"
_STOP_HEADERS = ("impression:", "recommendation:")

# Sentence-final periods are suppressed after these lowercase words.
_ABBREVIATIONS = {"dr", "mr", "mrs", "ms", "vs", "a.m", "p.m", "e.g", "i.e"}

# A sentence may end at a terminator followed by whitespace or the end of
# the text; ``\s`` and ``str.isspace`` accept the same characters.
_BOUNDARY = re.compile(r"[.!?](?=\s|\Z)")

_STRIP_CHARS = string.punctuation


def extract_findings(raw_text: str) -> str:
    """Return the findings section of a report, or the whole text.

    The section starts after a case-insensitive ``FINDINGS:`` header and
    runs until the next ``IMPRESSION:`` or ``RECOMMENDATION:`` header or
    the end of the text. Reports without a findings header are returned
    unchanged, so bare-text corpora pass through. Headers are found in
    the lowercased text, and the section is cut from the text as given.
    """
    lowered = raw_text.lower()
    start = lowered.find(_FINDINGS_HEADER)
    if start < 0:
        return raw_text
    body_start = start + len(_FINDINGS_HEADER)
    body_end = len(lowered)
    for header in _STOP_HEADERS:
        pos = lowered.find(header, body_start)
        if 0 <= pos < body_end:
            body_end = pos
    if len(lowered) != len(raw_text):
        body_start = _raw_offset(raw_text, body_start)
        body_end = _raw_offset(raw_text, body_end)
    return raw_text[body_start:body_end].strip()


def _raw_offset(raw_text: str, lowered_offset: int) -> int:
    # Where ``raw_text.lower()[lowered_offset:]`` starts in ``raw_text``; a
    # character may lowercase to more than one ("İ" to "i" and a dot).
    lowered_end = 0
    for index, ch in enumerate(raw_text):
        if lowered_end >= lowered_offset:
            return index
        lowered_end += len(ch.lower())
    return len(raw_text)


def split_sentences(text: str) -> list[str]:
    """Split text into trimmed sentences on ``.``, ``!``, ``?`` boundaries.

    A period only ends a sentence when followed by whitespace or the end
    of the text, and not when the preceding word is a single letter or a
    known abbreviation ("Stable vs. prior exam." stays one sentence).
    """
    sentences: list[str] = []
    start = 0
    for boundary in _BOUNDARY.finditer(text):
        i = boundary.start()
        if text[i] == "." and _guarded_period(text, i):
            continue
        sentence = text[start:i + 1].strip()
        if sentence:
            sentences.append(sentence)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _guarded_period(text: str, i: int) -> bool:
    # Word immediately before the period, without the period itself.
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    word = text[j:i].lower()
    if len(word) == 1 and word.isalpha():
        return True
    return word in _ABBREVIATIONS


def tokenize(sentence: str) -> list[str]:
    """Lowercase and split a sentence into punctuation-stripped tokens.

    Leading and trailing punctuation is removed from each token while
    internal hyphens and slashes survive ("ill-defined" stays one token).
    Beyond ASCII punctuation, a non-ASCII token also loses leading and
    trailing Unicode punctuation (category ``P*``: curly quotes,
    guillemets, the ellipsis).  De-identification masks ("XXXX") come
    through as the token "xxxx".  Tokens that were purely punctuation are
    dropped.
    """
    tokens = []
    for chunk in sentence.lower().split():
        token = chunk.strip(_STRIP_CHARS)
        if not token.isascii():
            token = token.strip(_STRIP_CHARS + "".join(
                ch for ch in token if unicodedata.category(ch)[0] == "P"))
        if token:
            tokens.append(token)
    return tokens


class Report(NamedTuple):
    """One normalized text: its findings' sentences and their tokens."""

    id: str
    sentences: list[str]
    tokens: list[list[str]]


def make_report(report_id: str, raw_text: str) -> Report:
    """Build a :class:`Report`: the sentences of the findings section of
    ``raw_text``, each with its tokens."""
    sentences = split_sentences(extract_findings(raw_text))
    return Report(report_id, sentences,
                  [tokenize(sentence) for sentence in sentences])


class CorpusRecord(NamedTuple):
    """One corpus row: its raw fields, as loaded."""

    id: str
    text: str
    reference: str | None = None
    candidate: str | None = None
    gold_label: int | None = None


# The corpus schema, in CorpusRecord's order.
_STRING_FIELDS = ("id", *TEXT_FIELDS)
_REQUIRED_FIELDS = _STRING_FIELDS[:2]
_READ_FIELDS = (*_STRING_FIELDS, "label")
# A JSON escape such as "\ud800" decodes to a lone surrogate, which no
# output can encode as UTF-8.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def load_corpus(path: str | Path, format: str = "jsonl") -> list[CorpusRecord]:
    """Load a corpus file into records, preserving file order.

    Raises :class:`CorpusError` at the first malformed row or duplicate
    id, with its line (and the byte offset, where known). JSONL lines end
    at ``\\n``; CSV lines also at ``\\r\\n`` and a lone ``\\r``.
    """
    loaders = {"jsonl": _load_jsonl, "csv": _load_csv}
    if format not in loaders:
        raise CorpusError(f"unknown corpus format {format!r}")
    records = []
    seen: dict[str, int] = {}
    for record, where in loaders[format](Path(path)):
        if record.id in seen:
            raise CorpusError(f"duplicate id {record.id!r}, first on line "
                              f"{seen[record.id]}", **where)
        seen[record.id] = where["line"]
        records.append(record)
    return records


def _refuse_repeated(names: list[str], kind: str, where: dict) -> None:
    # A repeated name would silently keep its last value.
    for name in _READ_FIELDS:
        if names.count(name) > 1:
            raise CorpusError(f"{kind} {name!r} is repeated", **where)


def _load_jsonl(path: Path) -> Iterator[tuple[CorpusRecord, dict]]:
    # One decoder per file: ``json.loads`` with a hook builds one per line.
    # It ends an object after those nested in it, so the pairs it built
    # last on a line are the top-level object's.
    last: deque[list[tuple[str, object]]] = deque(maxlen=1)
    decode = json.JSONDecoder(
        object_pairs_hook=lambda p: last.append(p) or dict(p)).decode
    with open(path, "rb") as handle:
        # JSON Lines ends a line at "\n" only: a lone "\r" is whitespace.
        for line_no, line_offset, text_line in utf8_lines(handle, CorpusError):
            if not text_line.strip():
                continue
            where = {"line": line_no, "byte_offset": line_offset}
            try:
                obj = decode(text_line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"malformed JSON: {exc.msg}",
                                  **where) from exc
            if not isinstance(obj, dict):
                raise CorpusError("record is not a JSON object", **where)
            if len(obj) != len(last[0]):
                _refuse_repeated([name for name, _ in last[0]], "key", where)
            yield _record_from_mapping(obj, where), where


def _load_csv(path: Path) -> Iterator[tuple[CorpusRecord, dict]]:
    with open(path, "rb") as handle:
        reader = csv.reader(text_line for _, _, text_line
                            in utf8_lines(split_cr(handle), CorpusError))
        header = next(reader, None)
        if header is None:
            return
        missing = set(_REQUIRED_FIELDS) - set(header)
        if missing:
            raise CorpusError("missing required column(s): "
                              + ", ".join(sorted(missing)), line=1)
        _refuse_repeated(header, "column", {"line": 1})
        # A quoted cell may span lines: a record starts on the line after
        # the previous row ended.  Blank lines hold no record.
        start = reader.line_num + 1
        for row in reader:
            if len(row) > len(header):
                # An unquoted comma split a cell; never drop cells.
                raise CorpusError(
                    f"row has {len(row)} cells but the header names "
                    f"{len(header)}; quote any cell that holds a comma",
                    line=start)
            if row:
                # Empty: an absent optional field, but an empty text.
                mapping = {k: v for k, v in zip(header, row)
                           if k in _REQUIRED_FIELDS
                           or k in _READ_FIELDS and v != ""}
                where = {"line": start}
                yield _record_from_mapping(mapping, where), where
            start = reader.line_num + 1


def _record_from_mapping(obj: dict, where: dict) -> CorpusRecord:
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise CorpusError(f"missing required field {name!r}", **where)
        if not isinstance(obj[name], str):
            raise CorpusError(f"field {name!r} must be a string", **where)
    label = obj.get("label")
    if label in ("0", "1"):
        label = int(label)
    elif label is not None and (type(label) is not int or label not in (0, 1)):
        raise CorpusError(f"field 'label' must be 0 or 1, got {label!r}",
                          **where)
    for name in _STRING_FIELDS:
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise CorpusError(f"field {name!r} must be a string", **where)
    for name in _STRING_FIELDS:
        value = obj.get(name)
        if value and not value.isascii() and _SURROGATE.search(value):
            raise CorpusError(f"field {name!r} holds a lone surrogate",
                              **where)
    return CorpusRecord(*map(obj.get, _STRING_FIELDS), label)
