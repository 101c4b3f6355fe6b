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
:func:`label_corpus` therefore labels each distinct sentence once per
call, and screens what cannot hold a mention (:meth:`RuleSet.may_mention`):
a findings section whose lowercase holds no keyword surface is not split,
nor such a sentence tokenized. It keeps a dict from sentence text to the
evidence that :func:`label_report` finds in a one-sentence report of it.
The dict lives for one call and holds one entry per distinct sentence of
the keyword-bearing sections; each occurrence copies the evidence with
its own sentence index. A mention is tried only against the templates
whose literals its sentence holds (:meth:`RuleSet.templates_for`), in
file order, so the same rule fires.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ._io import TEXT_FIELDS
from .corpus import (CorpusError, CorpusRecord, Report, extract_findings,
                     split_sentences, tokenize)
# Re-exported: bench/test_bench.py instruments labeler.make_report.
from .corpus import make_report  # noqa: F401
from .rules import KeywordEntry, RuleSet

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


def label_corpus(records: list[CorpusRecord], rules: RuleSet,
                 text_source: str = "text") -> tuple[list[PriorLabel], LabelCounts]:
    """Label every record, returning per-record labels plus counts.

    ``text_source`` picks which field is labeled: the record text
    (default), the reference or the candidate.  Each label equals
    ``label_report(make_report(record.id, value), rules)``, but each
    distinct sentence is screened, tokenized and classified once per
    call: its evidence is looked up by the sentence's text.
    """
    if text_source not in TEXT_FIELDS:
        raise ValueError(f"unknown text source {text_source!r}")
    # Sentence text -> the evidence of a one-sentence report of it.
    evidence_of: dict[str, tuple[ClassifiedMention, ...]] = {}
    labels = []
    for record in records:
        value = getattr(record, text_source)
        if value is None:
            raise CorpusError(
                f"record {record.id!r} has no {text_source} field")
        findings = extract_findings(value)
        sentences = split_sentences(findings) \
            if rules.may_mention(findings) else []
        evidence: list[ClassifiedMention] = []
        for index, sentence in enumerate(sentences):
            found = evidence_of.get(sentence)
            if found is None:
                found = ()
                if rules.may_mention(sentence):
                    report = Report(record.id, [sentence],
                                    [tokenize(sentence)])
                    found = label_report(report, rules).evidence
                evidence_of[sentence] = found
            if found:
                evidence += found if index == 0 else [
                    item._replace(mention=item.mention._replace(
                        sentence_index=index)) for item in found]
        labels.append(PriorLabel(1, tuple(evidence)) if evidence
                      else _NO_MENTIONS)
    positive = sum(label.value for label in labels)
    counts = LabelCounts(negative=len(labels) - positive,
                         positive=positive, total=len(labels))
    return labels, counts
