"""Rule-based detection of comparison-prior expressions in reports.

The labeler runs three stages over a normalized report (a findings
section split into sentences and tokens):

1. mention extraction: find every keyword occurrence, sentence by
   sentence;
2. mention classification: match negation patterns first, then prior
   patterns, against the mention's sentence (sentence scope only);
3. aggregation: the report label is 1 exactly when at least one mention
   classified as a prior expression.

Classification is local to a sentence and independent across mentions,
so reports can be labeled with any order-preserving parallel map, and a
sentence's evidence does not depend on the report it sits in.
:class:`Labeler`, the engine, therefore labels each distinct sentence
once, up to case, and keeps its evidence by the sentence's lowercase;
each occurrence copies the evidence with its own sentence index. It
lowercases each findings section once, after cutting it, and finds where
each keyword surface of its screen occurs. A section that holds none is
not split; otherwise only the sentences up to the one that holds the
last hit are cut, and only a sentence that holds a hit is stripped,
looked up, and on a miss tokenized and labeled. So the cache holds only
keyword sentences, and grows with the distinct ones. A mention is tried
only against the templates whose literals its sentence holds
(:meth:`RuleSet.templates_for`), in file order, so the same rule fires.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ._io import DEFAULT_TEXT_FIELD, TEXT_FIELDS
from .corpus import (CorpusError, CorpusRecord, Report, _sentence_ends,
                     extract_findings, tokenize)
# Re-exported: bench/test_bench.py instruments labeler.make_report.
from .corpus import make_report  # noqa: F401
from .rules import KeywordEntry, RuleSet, default_rules

__all__ = [
    "Verdict",
    "Mention",
    "ClassifiedMention",
    "PriorLabel",
    "LabelCounts",
    "extract_mentions",
    "classify_mentions",
    "aggregate",
    "label_report",
    "label_corpus",
    "Labeler",
]


class Verdict(enum.Enum):
    PRIOR_EXPRESSION = "prior_expression"
    NEGATED = "negated"
    IRRELEVANT = "irrelevant"


class Mention(NamedTuple):
    """A keyword occurrence: which token(s), in which sentence."""

    keyword: KeywordEntry
    sentence_index: int
    token_span: tuple[int, int]
    surface: str


class ClassifiedMention(NamedTuple):
    """A mention with its verdict and, when a pattern fired, the match.

    ``match_span`` is the full token extent the fired template consumed,
    mention included; for irrelevant mentions both fields are None.
    """

    mention: Mention
    verdict: Verdict
    fired_rule: str | None = None
    match_span: tuple[int, int] | None = None


class PriorLabel(NamedTuple):
    """Binary report label with the prior-expression mentions as evidence."""

    value: int
    evidence: tuple[ClassifiedMention, ...]


class LabelCounts(NamedTuple):
    negative: int
    positive: int
    total: int

    def to_dict(self) -> dict[str, int]:
        return self._asdict()


def extract_mentions(report: Report, rules: RuleSet) -> list[Mention]:
    """Find all keyword occurrences in sentence, then token, order.

    A token matches at most one keyword entry, the one
    :meth:`RuleSet.keyword_for` picks.
    """
    mentions = []
    for sentence_index, tokens in enumerate(report.tokens):
        for position, token in enumerate(tokens):
            keyword = rules.keyword_for(token)
            if keyword is not None:
                mentions.append(Mention(
                    keyword=keyword,
                    sentence_index=sentence_index,
                    token_span=(position, position + 1),
                    surface=token,
                ))
    return mentions


def classify_mentions(report: Report, mentions: list[Mention],
                      rules: RuleSet) -> list[ClassifiedMention]:
    """Assign a verdict to each mention against its own sentence.

    Negation patterns are evaluated before prior patterns, so "with no
    comparison studies" never reads as a prior. Change-verb keywords are
    confirmed only by comparative-marker patterns (rule ids starting
    with "marker"); a bare "increased opacity" stays irrelevant.
    """
    classified = []
    for mention in mentions:
        tokens = report.tokens[mention.sentence_index]
        classified.append(_classify_one(mention, tokens, rules))
    return classified


def _classify_one(mention: Mention, tokens: list[str],
                  rules: RuleSet) -> ClassifiedMention:
    # Only the templates whose literals the sentence holds can match.
    negations, priors = rules.templates_for(tokens)
    for template in negations:
        span = template.match(tokens, mention.token_span)
        if span is not None:
            return ClassifiedMention(mention, Verdict.NEGATED,
                                     template.rule_id, span)
    needs_marker = mention.keyword.surface in rules.change_verbs
    for template in priors:
        if needs_marker and not template.is_marker:
            continue
        span = template.match(tokens, mention.token_span)
        if span is not None:
            return ClassifiedMention(mention, Verdict.PRIOR_EXPRESSION,
                                     template.rule_id, span)
    return ClassifiedMention(mention, Verdict.IRRELEVANT)


def aggregate(classified: list[ClassifiedMention]) -> PriorLabel:
    """Reduce mention verdicts to the report label.

    Evidence keeps exactly the prior-expression mentions, in their
    original order; the label is 1 iff that list is non-empty.
    """
    evidence = tuple(item for item in classified
                     if item.verdict is Verdict.PRIOR_EXPRESSION)
    return PriorLabel(value=1 if evidence else 0, evidence=evidence)


_NO_MENTIONS = PriorLabel(0, ())


def label_report(report: Report, rules: RuleSet) -> PriorLabel:
    """Run the full extract/classify/aggregate chain on one report."""
    mentions = extract_mentions(report, rules)
    classified = classify_mentions(report, mentions, rules)
    return aggregate(classified)


class Labeler:
    """The labeling engine: a rule set, its screen and its sentence cache."""

    def __init__(self, rules: RuleSet) -> None:
        self.rules = rules
        # A mention's token starts with its keyword's surface and lies in
        # its sentence's lowercase, and so in its section's: sentences end
        # before whitespace, so even a final sigma lowercases alike. A
        # surface that holds another is left out, as redundant.
        surfaces = dict.fromkeys(entry.surface for entry in rules.keywords)
        self._screen = tuple(surface for surface in surfaces if not any(
            other in surface and other != surface for other in surfaces))
        # A keyword sentence's lowercase -> the evidence of a one-sentence
        # report of it.
        self._evidence_of: dict[str, tuple[ClassifiedMention, ...]] = {}

    def label(self, record_id: str, text: str) -> PriorLabel:
        """The label ``label_report(make_report(record_id, text), rules)``.

        Works on the cut section's lowercase, whose sentences are those of
        the section, lowercased; evidence depends only on the tokens,
        which ``tokenize`` lowercases anyway. The lowercase of the whole
        text would not do: a final sigma lowercases by what follows it.
        """
        findings = extract_findings(text).lower()
        hits = []
        for surface in self._screen:
            position = -1
            while (position := findings.find(surface, position + 1)) >= 0:
                hits.append((position, position + len(surface)))
        if not hits:
            return _NO_MENTIONS
        hits.sort()
        evidence: list[ClassifiedMention] = []
        # Sentences are cut only up to the one that holds the last hit,
        # and only one that holds a hit is stripped and labeled. No
        # sentence before the last is blank, so ends count sentences.
        ends = enumerate(_sentence_ends(findings))
        index = start = end = 0
        labeled = -1
        for first, last in hits:
            while end <= first:
                start = end
                index, end = next(ends)
            if last > end or index == labeled:
                continue
            labeled = index
            sentence = findings[start:end].strip()
            found = self._evidence_of.get(sentence)
            if found is None:
                report = Report(record_id, [sentence], [tokenize(sentence)])
                found = label_report(report, self.rules).evidence
                self._evidence_of[sentence] = found
            if found:
                evidence += found if index == 0 else [
                    item._replace(mention=item.mention._replace(
                        sentence_index=index)) for item in found]
        return PriorLabel(1, tuple(evidence)) if evidence else _NO_MENTIONS


def label_corpus(records: list[CorpusRecord], rules: RuleSet | None = None,
                 text_source: str = DEFAULT_TEXT_FIELD
                 ) -> tuple[list[PriorLabel], LabelCounts]:
    """Label each record's ``text_source`` field (its text, reference or
    candidate) by one fresh :class:`Labeler` of ``rules``, by default the
    bundled ones; return the labels and counts."""
    if text_source not in TEXT_FIELDS:
        raise ValueError(f"unknown text source {text_source!r}")
    engine = Labeler(default_rules() if rules is None else rules)
    labels = []
    for record in records:
        value = getattr(record, text_source)
        if value is None:
            raise CorpusError(
                f"record {record.id!r} has no {text_source} field")
        labels.append(engine.label(record.id, value))
    positive = sum(label.value for label in labels)
    return labels, LabelCounts(len(labels) - positive, positive, len(labels))
