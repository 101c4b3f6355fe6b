"""The record types: their fields, defaults, and serialized form.

Every result type is a ``typing.NamedTuple``. Its field names, order and
defaults are part of the library API, so they are pinned here. A
NamedTuple is a tuple, and ``json.dumps`` writes a tuple as an array, so
every ``to_dict`` must return plain dicts and lists all the way down.
"""

import json
from pathlib import Path

import pytest

from radpriors.analysis import (Histogram, PipelineResult, StratifiedSummary,
                                StratumStats, pipeline_label_then_eval)
from radpriors.corpus import CorpusRecord, Report, load_corpus
from radpriors.infusion import ForwardResult, GradCheckReport, ImagePair
from radpriors.labeler import (ClassifiedMention, LabelCounts, Labeler,
                               Mention, PriorLabel)
from radpriors.metrics import CorpusScores, MetricReport, ReportScores
from radpriors.rules import (KeywordEntry, RuleSet, RuleTemplate, _Gap,
                             _Literal, default_rules, parse_template)

FIXTURES = Path(__file__).parent / "fixtures"

# Type -> (field names in order, defaults).
RECORDS = {
    Report: (("id", "sentences", "tokens"), {}),
    CorpusRecord: (("id", "text", "reference", "candidate", "gold_label"),
                   {"reference": None, "candidate": None,
                    "gold_label": None}),
    KeywordEntry: (("surface", "stem"), {"stem": False}),
    _Literal: (("choices",), {}),
    _Gap: (("max",), {}),
    RuleTemplate: (("rule_id", "pre", "post", "source"), {}),
    Mention: (("keyword", "sentence_index", "token_span", "surface"), {}),
    ClassifiedMention: (("mention", "verdict", "fired_rule", "match_span"),
                        {"fired_rule": None, "match_span": None}),
    PriorLabel: (("value", "evidence"), {}),
    LabelCounts: (("negative", "positive", "total"), {}),
    ReportScores: (("id", "bleu", "rouge_l", "cider", "label",
                    "candidate_length"),
                   {"label": None, "candidate_length": 0}),
    CorpusScores: (("bleu", "rouge_l", "cider"), {}),
    MetricReport: (("per_report", "corpus"), {}),
    Histogram: (("bin_edges", "counts"), {}),
    StratumStats: (("count", "mean", "std", "min", "max", "histogram",
                    "mean_token_length"), {}),
    StratifiedSummary: (("negative", "positive", "bins", "value_range"), {}),
    PipelineResult: (("metrics", "counts", "labels", "summary"), {}),
    ImagePair: (("frontal", "lateral"), {}),
    ForwardResult: (("tokens", "latent", "latent_infused"), {}),
    GradCheckReport: (("max_rel_error", "per_param", "prior_analytic",
                       "prior_fd"), {}),
}


@pytest.mark.parametrize("record_type", RECORDS,
                         ids=lambda record_type: record_type.__name__)
def test_fields_and_defaults(record_type):
    fields, defaults = RECORDS[record_type]
    assert issubclass(record_type, tuple)
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults


def test_records_are_immutable():
    record = CorpusRecord(id="r1", text="Stable.")
    with pytest.raises(AttributeError):
        record.text = "Changed."
    assert record._replace(text="Changed.") == \
        CorpusRecord(id="r1", text="Changed.")


class TestRuleSet:
    def test_builds_from_keywords(self):
        rules = RuleSet([KeywordEntry("prior"), KeywordEntry("increase", True)],
                        [], [], frozenset({"increase"}))
        assert rules.version == "0"
        assert rules.keyword_for("increased") == KeywordEntry("increase", True)
        assert rules.keyword_for("prior") == KeywordEntry("prior")
        assert rules.keyword_for("stable") is None
        assert Labeler(rules)._screen == ("prior", "increase")

    def test_equality_covers_the_public_fields_only(self):
        used, fresh = default_rules(), default_rules()
        used.keyword_for("prior")
        used.templates_for(["compared", "to", "prior"])
        assert used == fresh
        changed = RuleSet(fresh.keywords, fresh.negation_patterns,
                          fresh.prior_patterns, fresh.change_verbs,
                          version=fresh.version + "x")
        assert changed != fresh
        assert fresh != tuple(getattr(fresh, name) for name in (
            "keywords", "negation_patterns", "prior_patterns",
            "change_verbs", "version"))

    def test_repr_shows_the_public_fields(self):
        rules = RuleSet([KeywordEntry("prior")], [], [], frozenset())
        assert repr(rules) == (
            "RuleSet(keywords=(KeywordEntry(surface='prior', stem=False),), "
            "negation_patterns=(), prior_patterns=(), "
            "change_verbs=frozenset(), version='0')")

    def test_holds_its_rules_as_tuples(self):
        # A caller's list edited after construction would leave the two
        # memos behind.
        keywords = [KeywordEntry("prior")]
        negations = [parse_template("neg", "no {m}")]
        priors = [parse_template("exam", "{m} exam")]
        rules = RuleSet(keywords, negations, priors, frozenset())
        keywords.append(KeywordEntry("stable"))
        assert rules.keywords == (KeywordEntry("prior"),)
        assert rules.keyword_for("stable") is None
        for name in ("keywords", "negation_patterns", "prior_patterns"):
            with pytest.raises(AttributeError):
                getattr(rules, name).append(KeywordEntry("stable"))
        assert rules == RuleSet(tuple(keywords[:1]), tuple(negations),
                                tuple(priors), frozenset())
        # The change verbs are held as a frozenset of their own.
        verbs = {"increase"}
        bare = RuleSet([KeywordEntry("increase", True)], [],
                       [parse_template("p", "{m} opacity")], verbs)
        verbs.discard("increase")
        assert bare.change_verbs == frozenset({"increase"})
        assert Labeler(bare).label("r", "Increased opacity.").value == 0

    def test_fields_cannot_be_rebound(self):
        rules = RuleSet([KeywordEntry("prior")], [], [], frozenset())
        with pytest.raises(AttributeError):
            rules.keywords = (KeywordEntry("stable"),)
        assert rules.keyword_for("stable") is None
        assert rules.keyword_for("prior") == KeywordEntry("prior")
        assert Labeler(rules)._screen == ("prior",)
        assert rules != RuleSet([KeywordEntry("stable")], [], [], frozenset())
        assert rules == RuleSet([KeywordEntry("prior")], [], [], frozenset())
        for name in RuleSet._FIELDS:
            value = getattr(rules, name)
            with pytest.raises(AttributeError):
                setattr(rules, name, value)
            assert getattr(rules, name) is value

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(default_rules())


def _holds_record(value):
    """Whether a NamedTuple sits anywhere inside ``value``."""
    if isinstance(value, dict):
        return any(map(_holds_record, value.values()))
    if isinstance(value, (list, tuple)):
        return hasattr(value, "_fields") or any(map(_holds_record, value))
    return False


def test_to_dict_returns_plain_dicts():
    result = pipeline_label_then_eval(
        load_corpus(FIXTURES / "pipeline6.jsonl"), metric="rouge_l")
    summary = result.summary
    assert summary.negative is not None and summary.positive is not None
    records = [result.counts, result.metrics, result.metrics.corpus,
               *result.metrics.per_report, summary, summary.negative,
               summary.negative.histogram]
    for record in records:
        as_dict = record.to_dict()
        assert type(as_dict) is dict, type(record).__name__
        assert not _holds_record(as_dict), type(record).__name__
        json.dumps(as_dict)
