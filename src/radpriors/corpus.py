"""Report ingestion: findings extraction, sentence splitting, tokenization.

Reports arrive as JSONL or CSV records with an ``id`` and a free-text
``text`` field, plus optional ``reference``, ``candidate``, and ``label``
columns. A :class:`CorpusRecord` holds these raw fields as loaded; a field
is normalized only when it is labeled, in two steps:
:func:`findings_sentences` takes raw text to its findings section's
sentences, and :func:`sentence_tokens` takes a sentence to its tokens.
Given a rule set, both skip what cannot hold a mention: a findings
section without a keyword surface is not split, nor such a sentence
tokenized. :func:`make_report` composes the two into a :class:`Report`;
:func:`~radpriors.labeler.label_corpus` composes them itself, so that it
tokenizes each distinct sentence once per call.
"""

from __future__ import annotations

import csv
import json
import re
import string
import unicodedata
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ._io import DataError

if TYPE_CHECKING:
    from .rules import RuleSet

__all__ = [
    "CorpusError",
    "Report",
    "CorpusRecord",
    "extract_findings",
    "split_sentences",
    "tokenize",
    "findings_sentences",
    "sentence_tokens",
    "make_report",
    "load_corpus",
]


class CorpusError(DataError):
    """Malformed corpus input. Carries the offending location when known."""

    def __init__(self, message: str, *, line: int | None = None,
                 byte_offset: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
            if byte_offset is not None:
                message += f" (byte offset {byte_offset})"
        super().__init__(message)
        self.line = line
        self.byte_offset = byte_offset


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


def findings_sentences(raw_text: str,
                       rules: RuleSet | None = None) -> list[str]:
    """The sentences of the findings section of ``raw_text``.

    With ``rules``, a section whose lowercase holds no keyword surface
    (:meth:`RuleSet.may_mention`) gives none: it is not split.
    """
    findings = extract_findings(raw_text)
    if rules is not None and not rules.may_mention(findings):
        return []
    return split_sentences(findings)


def sentence_tokens(sentence: str, rules: RuleSet | None = None) -> list[str]:
    """The tokens of ``sentence``.

    With ``rules``, a sentence whose lowercase holds no keyword surface
    gives none: it is not tokenized, since no token of it could be a
    mention.
    """
    if rules is not None and not rules.may_mention(sentence):
        return []
    return tokenize(sentence)


def make_report(report_id: str, raw_text: str,
                rules: RuleSet | None = None) -> Report:
    """Build a :class:`Report` by the findings/sentence/token chain.

    The report holds :func:`findings_sentences` and each one's
    :func:`sentence_tokens`, screened alike by ``rules`` when given, so
    a screened sentence keeps its index with an empty token list.
    """
    sentences = findings_sentences(raw_text, rules)
    return Report(report_id, sentences,
                  [sentence_tokens(sentence, rules) for sentence in sentences])


class CorpusRecord(NamedTuple):
    """One corpus row: its raw fields, as loaded."""

    id: str
    text: str
    reference: str | None = None
    candidate: str | None = None
    gold_label: int | None = None


_OPTIONAL_FIELDS = ("reference", "candidate", "label")
_READ_FIELDS = ("id", "text", *_OPTIONAL_FIELDS)
_UTF8_BOM = b"\xef\xbb\xbf"


def load_corpus(path: str | Path, format: str = "jsonl") -> list[CorpusRecord]:
    """Load a corpus file into records, preserving file order.

    Raises :class:`CorpusError` for malformed rows, with the line number
    (and byte offset for JSONL) in the message, and for duplicate ids.
    """
    path = Path(path)
    if format == "jsonl":
        records = _load_jsonl(path)
    elif format == "csv":
        records = _load_csv(path)
    else:
        raise CorpusError(f"unknown corpus format {format!r}")
    seen: dict[str, int] = {}
    for record in records:
        if record.id in seen:
            raise CorpusError(f"duplicate id {record.id!r}")
        seen[record.id] = 1
    return records


class _RepeatedKeys(dict):
    """A JSON object that repeats a key: each key's last value, as a
    dict, and every key in file order as ``names``."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        self.names = [name for name, _ in pairs]


def _object_from_pairs(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _RepeatedKeys(pairs)


def _refuse_repeated(names: list[str], kind: str, line: int,
                     byte_offset: int | None = None) -> None:
    # A repeated name would silently keep its last value.
    for name in _READ_FIELDS:
        if names.count(name) > 1:
            raise CorpusError(f"{kind} {name!r} is repeated", line=line,
                              byte_offset=byte_offset)


def _load_jsonl(path: Path) -> list[CorpusRecord]:
    records = []
    offset = 0
    # One decoder per file: ``json.loads`` with a hook builds one per line.
    decode = json.JSONDecoder(object_pairs_hook=_object_from_pairs).decode
    with open(path, "rb") as handle:
        for line_no, raw_line in enumerate(handle, start=1):
            line_offset = offset
            offset += len(raw_line)
            if line_no == 1:
                raw_line = raw_line.removeprefix(_UTF8_BOM)
            try:
                text_line = raw_line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"invalid UTF-8: {exc}", line=line_no,
                                  byte_offset=line_offset) from exc
            if not text_line.strip():
                continue
            try:
                obj = decode(text_line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"malformed JSON: {exc.msg}", line=line_no,
                                  byte_offset=line_offset) from exc
            if not isinstance(obj, dict):
                raise CorpusError("record is not a JSON object", line=line_no,
                                  byte_offset=line_offset)
            if isinstance(obj, _RepeatedKeys):
                _refuse_repeated(obj.names, "key", line_no, line_offset)
            records.append(_record_from_mapping(obj, line_no, line_offset))
    return records


def _load_csv(path: Path) -> list[CorpusRecord]:
    records = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return []
        missing = {"id", "text"} - set(header)
        if missing:
            raise CorpusError(
                f"missing required column(s): {', '.join(sorted(missing))}",
                line=1)
        _refuse_repeated(header, "column", 1)
        # A quoted cell may span lines: a record starts on the line after
        # the previous row ended.  Blank lines hold no record.
        start = reader.line_num + 1
        for row in reader:
            if len(row) > len(header):
                # An unquoted comma split a cell; never drop the extra cells.
                raise CorpusError(
                    f"row has {len(row)} cells but the header names "
                    f"{len(header)}; quote any cell that holds a comma",
                    line=start)
            if row:
                # An empty cell is an absent optional field, but an empty text.
                mapping = {k: v for k, v in zip(header, row)
                           if k in ("id", "text")
                           or k in _OPTIONAL_FIELDS and v != ""}
                records.append(_record_from_mapping(mapping, start, None))
            start = reader.line_num + 1
    return records


def _record_from_mapping(obj: dict, line_no: int,
                         byte_offset: int | None) -> CorpusRecord:
    for name in ("id", "text"):
        if name not in obj:
            raise CorpusError(f"missing required field {name!r}", line=line_no,
                              byte_offset=byte_offset)
        if not isinstance(obj[name], str):
            raise CorpusError(f"field {name!r} must be a string", line=line_no,
                              byte_offset=byte_offset)
    label = obj.get("label")
    if label is not None:
        if isinstance(label, str) and label in ("0", "1"):
            label = int(label)
        if not isinstance(label, int) or isinstance(label, bool) \
                or label not in (0, 1):
            raise CorpusError(
                f"field 'label' must be 0 or 1, got {obj.get('label')!r}",
                line=line_no, byte_offset=byte_offset)
    for name in ("reference", "candidate"):
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise CorpusError(f"field {name!r} must be a string",
                              line=line_no, byte_offset=byte_offset)
    return CorpusRecord(
        id=obj["id"],
        text=obj["text"],
        reference=obj.get("reference"),
        candidate=obj.get("candidate"),
        gold_label=label,
    )
