"""Rule file parsing and the token-level template matcher.

A rules file is line oriented UTF-8 with ``#`` comments and four sections:

    [keywords]       one keyword per line: ``surface`` or ``surface stem``
    [negations]      one pattern per line: ``rule-id: template``
    [priors]         one pattern per line: ``rule-id: template``
    [change_verbs]   keyword surfaces that need a comparative marker

A template is a space-separated list of atoms matched against sentence
tokens:

    literal          matches exactly one equal token
    a|b|c            alternation, matches one token equal to any choice
    {m}              the mention slot; exactly one per template
    ..N              a gap of 0..N arbitrary tokens

Templates may not begin or end with a gap, so every match has a
well-defined token span. Prior patterns whose id starts with ``marker``
double as comparative markers: change-verb keywords are confirmed only
by marker patterns (see the labeler module).
"""

from __future__ import annotations

from collections.abc import Iterable
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from ._io import DataError

__all__ = [
    "RuleFileError",
    "KeywordEntry",
    "RuleTemplate",
    "RuleSet",
    "parse_template",
    "load_rules",
    "default_rules",
    "DEFAULT_RULES_RESOURCE",
]

DEFAULT_RULES_RESOURCE = "default.rules"

_SECTIONS = ("keywords", "negations", "priors", "change_verbs")


class RuleFileError(DataError):
    """Rules file cannot be parsed or fails validation."""

    def __init__(self, message: str, *, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class KeywordEntry(NamedTuple):
    """A keyword surface form and its match mode.

    In stem mode the surface matches any token it prefixes, so the entry
    ``increase stem`` covers "increase", "increased", and "increasing".
    """

    surface: str
    stem: bool = False

    def matches(self, token: str) -> bool:
        if self.stem:
            return token.startswith(self.surface)
        return token == self.surface


# Template atoms. A literal with several choices encodes alternation.
class _Literal(NamedTuple):
    choices: tuple[str, ...]


class _Gap(NamedTuple):
    max: int


_Atom = _Literal | _Gap


class RuleTemplate(NamedTuple):
    """A compiled template: the atoms on each side of the mention slot.

    Both sides are stored nearest-the-mention first, so ``pre`` holds the
    atoms before ``{m}`` in reverse template order.
    """

    rule_id: str
    pre: tuple[_Atom, ...]
    post: tuple[_Atom, ...]
    source: str

    @property
    def is_marker(self) -> bool:
        return self.rule_id.startswith("marker")

    def match(self, tokens: list[str],
              span: tuple[int, int]) -> tuple[int, int] | None:
        """Match against a sentence with ``{m}`` bound to ``span``.

        Gaps consume as few tokens as possible, backtracking within their
        bound. Returns the full matched token span (first to last consumed
        token, mention included) or None.
        """
        before = _match(self.pre, tokens, 0, span[0] - 1, -1)
        if before is None:
            return None
        end = _match(self.post, tokens, 0, span[1], 1)
        if end is None:
            return None
        return (before + 1, end)


def _match(atoms: tuple[_Atom, ...], tokens: list[str], k: int, pos: int,
           step: int) -> int | None:
    """Match ``atoms[k:]`` reading tokens from ``pos`` in direction ``step``.

    Returns the position one step past the last consumed token, or None.
    """
    while k < len(atoms):
        atom = atoms[k]
        if isinstance(atom, _Gap):
            # Each side ends in a literal, so a gap must leave a token.
            for width in range(atom.max + 1):
                gap_end = pos + step * width
                if not 0 <= gap_end < len(tokens):
                    break
                found = _match(atoms, tokens, k + 1, gap_end, step)
                if found is not None:
                    return found
            return None
        if not 0 <= pos < len(tokens) or tokens[pos] not in atom.choices:
            return None
        pos += step
        k += 1
    return pos


def parse_template(rule_id: str, text: str, line: int | None = None) -> RuleTemplate:
    """Compile a template string, validating the atom grammar."""
    parts = text.split()
    if not parts:
        raise RuleFileError(f"template {rule_id!r} is empty", line=line)
    if "{m}" not in parts:
        raise RuleFileError(
            f"template {rule_id!r} is missing the {{m}} placeholder", line=line)
    if parts.count("{m}") > 1:
        raise RuleFileError(
            f"template {rule_id!r} has more than one {{m}}", line=line)
    slot = parts.index("{m}")
    pre = tuple(_parse_atom(rule_id, part, line)
                for part in reversed(parts[:slot]))
    post = tuple(_parse_atom(rule_id, part, line) for part in parts[slot + 1:])
    if any(side and isinstance(side[-1], _Gap) for side in (pre, post)):
        raise RuleFileError(
            f"template {rule_id!r} may not begin or end with a gap", line=line)
    return RuleTemplate(rule_id=rule_id, pre=pre, post=post, source=text)


def _parse_atom(rule_id: str, part: str, line: int | None) -> _Atom:
    if part.startswith(".."):
        digits = part[2:]
        if not digits.isdecimal():
            raise RuleFileError(
                f"template {rule_id!r}: bad gap atom {part!r}", line=line)
        return _Gap(int(digits))
    choices = tuple(part.lower().split("|"))
    if not all(choices):
        raise RuleFileError(
            f"template {rule_id!r}: empty alternation branch in {part!r}",
            line=line)
    return _Literal(choices)


class RuleSet:
    """Parsed rules: keywords, patterns, and the change-verb subset.

    The keywords and the two pattern lists are held as tuples, so they
    cannot be edited in place behind the index ``__init__`` builds.
    Equality and ``repr`` cover the five constructor fields only. A rule
    set is not hashable: defining ``__eq__`` sets ``__hash__`` to None.
    """

    _FIELDS = ("keywords", "negation_patterns", "prior_patterns",
               "change_verbs", "version")

    def __init__(self, keywords: Iterable[KeywordEntry],
                 negation_patterns: Iterable[RuleTemplate],
                 prior_patterns: Iterable[RuleTemplate],
                 change_verbs: frozenset[str], version: str = "0") -> None:
        self.keywords = tuple(keywords)
        self.negation_patterns = tuple(negation_patterns)
        self.prior_patterns = tuple(prior_patterns)
        self.change_verbs = change_verbs
        self.version = version
        # Built from the fields once.  A stable sort, so surfaces of equal
        # length keep file order.
        self._by_precedence = sorted(self.keywords,
                                     key=lambda entry: -len(entry.surface))
        self._surfaces = tuple(entry.surface for entry in self.keywords)
        self._keyword_memo: dict[str, KeywordEntry | None] = {}
        # The literal index: one bit per distinct literal atom of the
        # templates, each token's bits, and the bits each template needs,
        # in file order.
        self._literal_bits: dict[str, int] = {}
        self._templates_memo: dict[int, tuple[tuple[RuleTemplate, ...],
                                              ...]] = {}
        atom_bits: dict[_Literal, int] = {}

        def needed(template: RuleTemplate) -> int:
            bits = 0
            for atom in template.pre + template.post:
                if isinstance(atom, _Literal):
                    bit = atom_bits.setdefault(atom, 1 << len(atom_bits))
                    for choice in atom.choices:
                        self._literal_bits[choice] = \
                            self._literal_bits.get(choice, 0) | bit
                    bits |= bit
            return bits

        self._needed_bits = tuple(
            [(template, needed(template)) for template in patterns]
            for patterns in (self.negation_patterns, self.prior_patterns))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._FIELDS)
        return f"RuleSet({fields})"

    def may_mention(self, text: str) -> bool:
        """False when no token of ``text``, a sentence or a section, can be
        a mention.

        A mention's token equals or starts with its keyword's surface, and
        every token is a substring of its sentence's lowercase. That is a
        substring of the section's lowercase: sentences end before
        whitespace, so even a final sigma lowercases alike in both. A text
        whose lowercase holds no surface therefore has no mention.
        """
        return any(map(text.lower().__contains__, self._surfaces))

    def templates_for(self, tokens: list[str]) -> tuple[
            tuple[RuleTemplate, ...], tuple[RuleTemplate, ...]]:
        """The negation and prior templates that may match in ``tokens``.

        A template's every literal atom must equal some token of the
        sentence, so a template with an atom no token satisfies is left
        out. Both tuples keep file order. They are built once for each set
        of satisfied atoms and remembered.
        """
        present = 0
        for token in tokens:
            present |= self._literal_bits.get(token, 0)
        memo = self._templates_memo
        if present not in memo:
            memo[present] = tuple(
                tuple(template for template, bits in needed_bits
                      if bits & present == bits)
                for needed_bits in self._needed_bits)
        return memo[present]

    def keyword_for(self, token: str) -> KeywordEntry | None:
        """The keyword entry a token is a mention of, or None.

        When several entries match, the longest surface wins and ties go
        to the earlier entry in the rules file. Each token is resolved
        once per rule set and remembered.
        """
        memo = self._keyword_memo
        if token not in memo:
            memo[token] = next((entry for entry in self._by_precedence
                                if entry.matches(token)), None)
        return memo[token]

    def validate(self) -> None:
        surfaces = set()
        for entry in self.keywords:
            if not entry.surface or entry.surface != entry.surface.lower():
                raise RuleFileError(
                    f"keyword {entry.surface!r} must be non-empty lowercase")
            if any(ch.isspace() for ch in entry.surface):
                raise RuleFileError(
                    f"keyword {entry.surface!r} must be a single token")
            if entry.surface in surfaces:
                raise RuleFileError(f"duplicate keyword {entry.surface!r}")
            surfaces.add(entry.surface)
        missing = self.change_verbs - surfaces
        if missing:
            raise RuleFileError(
                "change verbs not in keyword list: "
                + ", ".join(sorted(missing)))
        ids = set()
        for template in self.negation_patterns + self.prior_patterns:
            if template.rule_id in ids:
                raise RuleFileError(f"duplicate rule id {template.rule_id!r}")
            ids.add(template.rule_id)


def load_rules(path: str | Path) -> RuleSet:
    """Parse a rules file, raising :class:`RuleFileError` with line numbers."""
    path = Path(path)
    return _parse_rules(path.read_text(encoding="utf-8"))


def _parse_rules(content: str) -> RuleSet:
    keywords: list[KeywordEntry] = []
    negations: list[RuleTemplate] = []
    priors: list[RuleTemplate] = []
    change_verbs: list[str] = []
    version = "0"
    section: str | None = None

    for line_no, raw_line in enumerate(content.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        comment = raw_line.split("#", 1)[1].strip() if "#" in raw_line else ""
        if comment.startswith("version:"):
            version = comment.split(":", 1)[1].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise RuleFileError(f"unknown section [{name}]", line=line_no)
            section = name
            continue
        if section is None:
            raise RuleFileError("content before any section header", line=line_no)
        if section == "keywords":
            keywords.append(_parse_keyword_line(line, line_no))
        elif section in ("negations", "priors"):
            template = _parse_pattern_line(line, line_no)
            (negations if section == "negations" else priors).append(template)
        else:
            if any(ch.isspace() for ch in line):
                raise RuleFileError(
                    f"change verb {line!r} must be a single keyword surface",
                    line=line_no)
            change_verbs.append(line.lower())

    ruleset = RuleSet(
        keywords=keywords,
        negation_patterns=negations,
        prior_patterns=priors,
        change_verbs=frozenset(change_verbs),
        version=version,
    )
    ruleset.validate()
    return ruleset


def _parse_keyword_line(line: str, line_no: int) -> KeywordEntry:
    parts = line.split()
    if len(parts) == 1:
        return KeywordEntry(surface=parts[0].lower())
    if len(parts) == 2 and parts[1].lower() == "stem":
        return KeywordEntry(surface=parts[0].lower(), stem=True)
    raise RuleFileError(
        f"bad keyword line {line!r} (expected 'surface' or 'surface stem')",
        line=line_no)


def _parse_pattern_line(line: str, line_no: int) -> RuleTemplate:
    if ":" not in line:
        raise RuleFileError(
            f"bad pattern line {line!r} (expected 'rule-id: template')",
            line=line_no)
    rule_id, _, template_text = line.partition(":")
    rule_id = rule_id.strip()
    if not rule_id:
        raise RuleFileError("pattern line has an empty rule id", line=line_no)
    return parse_template(rule_id, template_text.strip(), line=line_no)


def default_rules() -> RuleSet:
    """Load the rule set bundled with the package."""
    content = (resources.files("radpriors") / "data" /
               DEFAULT_RULES_RESOURCE).read_text(encoding="utf-8")
    return _parse_rules(content)
