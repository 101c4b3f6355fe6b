"""Rule file parsing and the token-level template matcher.

A rules file is line oriented UTF-8 (lines end at ``\\n``, ``\\r\\n`` or
a lone ``\\r``) with ``#`` comments and four sections:

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
well-defined token span. Every literal choice and every keyword must be
a token as :func:`~radpriors.corpus.tokenize` makes it, and a stem
keyword must be able to start one, or the rule could never fire. Prior
patterns whose id starts with ``marker`` double as comparative markers:
change-verb keywords are confirmed only by marker patterns (see the
labeler module).
"""

from __future__ import annotations

from collections.abc import Iterable
from importlib import resources
from pathlib import Path
from typing import BinaryIO, NamedTuple

from ._io import DataError, split_cr, utf8_lines

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
    """Malformed rules file. Carries the offending line when known."""


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
           step: int, failed: set[tuple[int, int]] | None = None
           ) -> int | None:
    """Match ``atoms[k:]`` reading tokens from ``pos`` in direction ``step``.

    Returns the position one step past the last consumed token, or None.
    Whether ``atoms[k:]`` match from ``pos`` depends on nothing else, so
    each (k, pos) after a gap that failed goes into ``failed``, which the
    first gap creates, and is not tried again. That bounds the work by
    atoms x tokens x widest gap, where plain backtracking is exponential
    in the number of gaps; the first match found is the same.
    """
    while k < len(atoms):
        atom = atoms[k]
        if isinstance(atom, _Gap):
            if failed is None:
                failed = set()
            # Each side ends in a literal, so a gap must leave a token.
            for width in range(atom.max + 1):
                gap_end = pos + step * width
                if not 0 <= gap_end < len(tokens):
                    break
                if (k + 1, gap_end) in failed:
                    continue
                found = _match(atoms, tokens, k + 1, gap_end, step, failed)
                if found is not None:
                    return found
                failed.add((k + 1, gap_end))
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
    from .corpus import tokenize

    for choice in choices:
        if tokenize(choice) != [choice]:
            raise RuleFileError(
                f"template {rule_id!r}: literal {choice!r} can never equal "
                f"a token", line=line)
    return _Literal(choices)


class RuleSet:
    """Parsed rules: keywords, patterns, and the change-verb subset.

    The keywords and the two pattern lists are held as tuples and the
    change verbs as a frozenset, and none of the five constructor fields
    can be rebound, so they cannot change behind the two memos: the
    keyword entry of each token (:meth:`keyword_for`) and the templates
    offered per set of literal tokens (:meth:`templates_for`). Equality
    and ``repr`` cover those five fields only. A rule set is not hashable:
    defining ``__eq__`` sets ``__hash__`` to None. Only a rules file is
    checked: a set built directly may repeat a keyword or a rule id.
    """

    _FIELDS = ("keywords", "negation_patterns", "prior_patterns",
               "change_verbs", "version")

    def __init__(self, keywords: Iterable[KeywordEntry],
                 negation_patterns: Iterable[RuleTemplate],
                 prior_patterns: Iterable[RuleTemplate],
                 change_verbs: frozenset[str], version: str = "0") -> None:
        # Set past __setattr__, which refuses to rebind them.
        self.__dict__.update(
            keywords=tuple(keywords),
            negation_patterns=tuple(negation_patterns),
            prior_patterns=tuple(prior_patterns),
            change_verbs=frozenset(change_verbs), version=version)
        self._keyword_memo: dict[str, KeywordEntry | None] = {}
        # Each side's templates in file order, each with one set of
        # choices per literal atom, and every literal choice.
        self._needs = tuple(
            [(template, [frozenset(atom.choices)
                         for atom in template.pre + template.post
                         if isinstance(atom, _Literal)])
             for template in patterns]
            for patterns in (self.negation_patterns, self.prior_patterns))
        self._literals = frozenset(
            choice for side in self._needs for _, needs in side
            for choices in needs for choice in choices)
        self._templates_memo: dict[frozenset[str], tuple[
            tuple[RuleTemplate, ...], ...]] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if name in self._FIELDS:
            raise AttributeError(f"RuleSet.{name} cannot be rebound")
        super().__setattr__(name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._FIELDS)
        return f"RuleSet({fields})"

    def templates_for(self, tokens: list[str]) -> tuple[
            tuple[RuleTemplate, ...], tuple[RuleTemplate, ...]]:
        """The negation and prior templates that may match in ``tokens``.

        A template's every literal atom must equal some token of the
        sentence, so a template with an atom no token satisfies is left
        out. Both tuples keep file order. They are built once for each set
        of literal tokens the sentence holds and remembered.
        """
        present = self._literals.intersection(tokens)
        memo = self._templates_memo
        if present not in memo:
            memo[present] = tuple(
                tuple(template for template, needs in side
                      if not any(map(present.isdisjoint, needs)))
                for side in self._needs)
        return memo[present]

    def keyword_for(self, token: str) -> KeywordEntry | None:
        """The keyword entry a token is a mention of, or None.

        When several entries match, the longest surface wins and ties go
        to the earlier entry in the rules file. Each token is resolved
        once per rule set and remembered.
        """
        memo = self._keyword_memo
        if token not in memo:
            memo[token] = max((entry for entry in self.keywords
                               if entry.matches(token)),
                              key=lambda entry: len(entry.surface),
                              default=None)
        return memo[token]


def load_rules(path: str | Path) -> RuleSet:
    """Parse a rules file, raising :class:`RuleFileError` with line numbers."""
    with open(path, "rb") as handle:
        return _parse_rules(handle)


def _parse_rules(handle: BinaryIO) -> RuleSet:
    keywords: list[KeywordEntry] = []
    negations: list[RuleTemplate] = []
    priors: list[RuleTemplate] = []
    # The first line of each keyword surface, rule id and change verb.
    surface_lines: dict[str, int] = {}
    rule_id_lines: dict[str, int] = {}
    change_verbs: dict[str, int] = {}
    version = "0"
    section: str | None = None

    for line_no, _, raw_line in utf8_lines(split_cr(handle), RuleFileError):
        line, _, comment = raw_line.partition("#")
        line, comment = line.strip(), comment.strip()
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
            entry = _parse_keyword_line(line, line_no)
            _refuse_repeat(surface_lines, "keyword", entry.surface, line_no)
            keywords.append(entry)
        elif section in ("negations", "priors"):
            template = _parse_pattern_line(line, line_no)
            _refuse_repeat(rule_id_lines, "rule id", template.rule_id, line_no)
            (negations if section == "negations" else priors).append(template)
        else:
            if any(ch.isspace() for ch in line):
                raise RuleFileError(
                    f"change verb {line!r} must be a single keyword surface",
                    line=line_no)
            change_verbs.setdefault(line.lower(), line_no)

    # A keyword may follow its change verb, so these wait for the last line.
    for verb, line_no in change_verbs.items():
        if verb not in surface_lines:
            raise RuleFileError(f"change verb {verb!r} is not a keyword",
                                line=line_no)
    return RuleSet(
        keywords=keywords,
        negation_patterns=negations,
        prior_patterns=priors,
        change_verbs=frozenset(change_verbs),
        version=version,
    )


def _refuse_repeat(first_lines: dict[str, int], kind: str, name: str,
                   line_no: int) -> None:
    first = first_lines.setdefault(name, line_no)
    if first != line_no:
        raise RuleFileError(
            f"duplicate {kind} {name!r}, first on line {first}", line=line_no)


def _parse_keyword_line(line: str, line_no: int) -> KeywordEntry:
    parts = line.split()
    stem = len(parts) == 2 and parts[1].lower() == "stem"
    if len(parts) != 1 and not stem:
        raise RuleFileError(
            f"bad keyword line {line!r} (expected 'surface' or 'surface stem')",
            line=line_no)
    from .corpus import tokenize

    # Only a token's edges lose punctuation, so a stem that can start a
    # token starts the one made of it and one more letter.
    surface = parts[0].lower()
    probe = surface + "a" if stem else surface
    if tokenize(probe) != [probe]:
        raise RuleFileError(
            f"keyword {surface!r} can never {'start' if stem else 'equal'} "
            f"a token", line=line_no)
    return KeywordEntry(surface=surface, stem=stem)


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
    with (resources.files("radpriors") / "data" /
          DEFAULT_RULES_RESOURCE).open("rb") as handle:
        return _parse_rules(handle)
