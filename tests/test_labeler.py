"""Mention extraction, classification, aggregation, corpus labeling."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import radpriors.corpus as corpus
import radpriors.labeler as labeler
from oracles import (reference_extract_mentions, reference_label_corpus,
                     reference_label_report, reference_make_report)
from radpriors.corpus import (CorpusError, CorpusRecord, Report,
                              extract_findings, load_corpus, make_report,
                              split_sentences, tokenize)
from radpriors.labeler import (ClassifiedMention, Mention, PriorLabel,
                               Verdict, aggregate, classify_mentions,
                               extract_mentions, label_corpus, label_report)
from radpriors.rules import (KeywordEntry, RuleSet, default_rules,
                             parse_template)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_GEN = Path(__file__).parent.parent / "bench" / "gen.py"

ROW1 = "Cardiomegaly is noted and is stable compared to prior examination from XXXX."
ROW2 = "Ill-defined opacity is again noted in the region of the lingula."
ROW3 = "There are low lung volumes. The lungs are otherwise clear."
ROW4 = "The left lower lobe have cleared in the interval."


@pytest.fixture(scope="module")
def rules():
    return default_rules()


def classify_text(text, rules):
    report = make_report("r", text)
    mentions = extract_mentions(report, rules)
    return classify_mentions(report, mentions, rules)


class TestExtractMentions:
    def test_single_keyword_sentence(self, rules):
        report = make_report("r", ROW1)
        mentions = extract_mentions(report, rules)
        assert [m.surface for m in mentions] == ["prior"]

    def test_no_keywords(self, rules):
        report = make_report("r", ROW3)
        assert extract_mentions(report, rules) == []

    def test_stem_prefix_and_exact_together(self, rules):
        report = make_report("r", "The opacity increased since prior study.")
        mentions = extract_mentions(report, rules)
        assert [(m.surface, m.keyword.surface) for m in mentions] == \
            [("increased", "increase"), ("prior", "prior")]

    def test_mentions_ordered_by_sentence_then_position(self, rules):
        report = make_report(
            "r", "Interval change of the effusion. Prior film reviewed.")
        mentions = extract_mentions(report, rules)
        assert [(m.sentence_index, m.token_span) for m in mentions] == \
            [(0, (0, 1)), (1, (0, 1))]

    def test_longest_surface_wins(self):
        rules = RuleSet(
            keywords=[KeywordEntry("unchang", stem=True),
                      KeywordEntry("unchanged")],
            negation_patterns=[], prior_patterns=[],
            change_verbs=frozenset())
        report = make_report("r", "The nodule is unchanged.")
        mentions = extract_mentions(report, rules)
        assert len(mentions) == 1
        assert mentions[0].keyword.surface == "unchanged"

    def test_span_lies_within_sentence(self, rules):
        report = make_report("r", ROW1)
        for mention in extract_mentions(report, rules):
            tokens = report.tokens[mention.sentence_index]
            start, end = mention.token_span
            assert 0 <= start < end <= len(tokens)
            assert mention.keyword.matches(tokens[start])


class TestClassifyMentions:
    def test_negated_comparison(self, rules):
        classified = classify_text(
            "Evaluation is limited with no comparison studies.", rules)
        assert [c.verdict for c in classified] == [Verdict.NEGATED]

    def test_again_noted_is_prior_expression(self, rules):
        classified = classify_text(ROW2, rules)
        assert [c.verdict for c in classified] == [Verdict.PRIOR_EXPRESSION]
        assert classified[0].fired_rule == "prior-noted"

    def test_in_the_interval_is_prior_expression(self, rules):
        classified = classify_text("The lobe has cleared in the interval.",
                                   rules)
        assert [c.verdict for c in classified] == [Verdict.PRIOR_EXPRESSION]

    def test_negation_takes_precedence(self, rules):
        # "prior study" alone would confirm; the leading "no" must veto.
        classified = classify_text("No prior study for review.", rules)
        assert classified[0].verdict is Verdict.NEGATED

    def test_change_verb_needs_marker(self, rules):
        bare = classify_text("Increased interstitial markings are present.",
                             rules)
        assert [c.verdict for c in bare] == [Verdict.IRRELEVANT]
        assert bare[0].fired_rule is None
        marked = classify_text("The nodule increased since XXXX.", rules)
        assert [c.verdict for c in marked] == [Verdict.PRIOR_EXPRESSION]

    def test_verdict_rule_consistency(self, rules):
        negation_ids = {t.rule_id for t in rules.negation_patterns}
        prior_ids = {t.rule_id for t in rules.prior_patterns}
        for text in (ROW1, ROW2, ROW4, "No prior study.",
                     "The nodule increased since XXXX."):
            for item in classify_text(text, rules):
                if item.verdict is Verdict.PRIOR_EXPRESSION:
                    assert item.fired_rule in prior_ids
                elif item.verdict is Verdict.NEGATED:
                    assert item.fired_rule in negation_ids
                else:
                    assert item.fired_rule is None


class TestAggregate:
    def _mention(self):
        return Mention(keyword=KeywordEntry("prior"), sentence_index=0,
                       token_span=(0, 1), surface="prior")

    def test_empty(self):
        assert aggregate([]) == PriorLabel(value=0, evidence=())

    def test_negated_only(self):
        item = ClassifiedMention(self._mention(), Verdict.NEGATED,
                                 fired_rule="neg-no", match_span=(0, 1))
        assert aggregate([item]).value == 0

    def test_any_prior_expression_wins(self):
        irrelevant = ClassifiedMention(self._mention(), Verdict.IRRELEVANT)
        confirmed = ClassifiedMention(self._mention(),
                                      Verdict.PRIOR_EXPRESSION,
                                      fired_rule="prior-noted",
                                      match_span=(0, 2))
        label = aggregate([irrelevant, confirmed])
        assert label.value == 1
        assert label.evidence == (confirmed,)


class TestLabelReport:
    def test_positive_row(self, rules):
        assert label_report(make_report("r", ROW1), rules).value == 1

    def test_negative_row(self, rules):
        assert label_report(make_report("r", ROW3), rules).value == 0

    def test_empty_report(self, rules):
        assert label_report(make_report("r", ""), rules).value == 0

    @pytest.mark.parametrize("quotes", ['""', "\u201c\u201d", "\u00ab\u00bb"])
    def test_quoted_prior_labels_alike(self, rules, quotes):
        text = f"Stable compared to the {quotes[0]}prior{quotes[1]} exam."
        assert label_report(make_report("r", text), rules).value == 1

    def test_value_iff_evidence(self, rules):
        for text in (ROW1, ROW2, ROW3, ROW4, ""):
            label = label_report(make_report("r", text), rules)
            assert (label.value == 1) == bool(label.evidence)


class TestLabelCorpus:
    def test_table_counts(self, rules):
        records = load_corpus(FIXTURES / "golden4.jsonl")
        labels, counts = label_corpus(records, rules)
        assert [l.value for l in labels] == [1, 1, 0, 1]
        assert counts.to_dict() == {"negative": 1, "positive": 3, "total": 4}

    def test_empty_corpus(self, rules):
        labels, counts = label_corpus([], rules)
        assert labels == []
        assert counts.to_dict() == {"negative": 0, "positive": 0, "total": 0}

    def test_synthetic_fixture_full_agreement(self, rules):
        records = load_corpus(FIXTURES / "synthetic50.jsonl")
        labels, counts = label_corpus(records, rules)
        disagreements = [record.id for record, label in zip(records, labels)
                         if label.value != record.gold_label]
        assert disagreements == []
        assert counts.total == 50

    def test_label_on_candidate(self, rules):
        records = load_corpus(FIXTURES / "pipeline3.jsonl")
        labels, _ = label_corpus(records, rules, text_source="candidate")
        assert [l.value for l in labels] == [0, 1, 0]

    def test_missing_field_names_record(self, rules):
        records = load_corpus(FIXTURES / "golden4.jsonl")
        with pytest.raises(CorpusError, match="t1"):
            label_corpus(records, rules, text_source="candidate")

    @pytest.mark.parametrize("source", ["id", "gold_label", "report"])
    def test_unknown_text_source_rejected_before_labeling(self, rules, source):
        records = load_corpus(FIXTURES / "golden4.jsonl")
        for corpus in (records, []):
            with pytest.raises(ValueError, match="unknown text source"):
                label_corpus(corpus, rules, text_source=source)


class TestLabelerProperties:
    def test_deterministic(self, rules):
        records = load_corpus(FIXTURES / "synthetic50.jsonl")
        first, _ = label_corpus(records, rules)
        second, _ = label_corpus(records, rules)
        assert first == second

    def _with_extra_prior(self, rules):
        return RuleSet(
            keywords=rules.keywords,
            negation_patterns=rules.negation_patterns,
            prior_patterns=rules.prior_patterns
            + (parse_template("zz-extra-prior", "{m} ..4 masses"),),
            change_verbs=rules.change_verbs)

    def _with_extra_negation(self, rules):
        return RuleSet(
            keywords=rules.keywords,
            negation_patterns=rules.negation_patterns
            + (parse_template("zz-extra-neg", "{m} ..4 noted"),),
            prior_patterns=rules.prior_patterns,
            change_verbs=rules.change_verbs)

    def test_adding_prior_pattern_never_flips_positive_to_negative(self, rules):
        records = load_corpus(FIXTURES / "synthetic50.jsonl")
        base, _ = label_corpus(records, rules)
        extended, _ = label_corpus(records, self._with_extra_prior(rules))
        for before, after in zip(base, extended):
            if before.value == 1:
                assert after.value == 1

    def test_adding_negation_pattern_never_flips_negative_to_positive(self, rules):
        records = load_corpus(FIXTURES / "synthetic50.jsonl")
        base, _ = label_corpus(records, rules)
        extended, _ = label_corpus(records, self._with_extra_negation(rules))
        for before, after in zip(base, extended):
            if before.value == 0:
                assert after.value == 0

    def test_sentence_locality(self, rules):
        cases = [
            ("Patchy opacities right base again noted. The heart is normal.", 1),
            ("The heart is normal. Comparison is made with prior study.", 0),
            ("Lungs are clear. No prior studies available.", 1),
        ]
        for text, drop_index in cases:
            report = make_report("r", text)
            label = label_report(report, rules)
            evidence_sentences = {c.mention.sentence_index
                                  for c in label.evidence}
            assert drop_index not in evidence_sentences
            kept = [s for i, s in enumerate(report.sentences)
                    if i != drop_index]
            trimmed = label_report(make_report("r", " ".join(kept)), rules)
            assert trimmed.value == label.value

    def test_evidence_soundness(self, rules):
        prior_by_id = {t.rule_id: t for t in rules.prior_patterns}
        for fixture in ("golden4.jsonl", "synthetic50.jsonl"):
            for record in load_corpus(FIXTURES / fixture):
                report = make_report(record.id, record.text)
                label = label_report(report, rules)
                for item in label.evidence:
                    tokens = report.tokens[item.mention.sentence_index]
                    start, end = item.mention.token_span
                    assert item.mention.keyword.matches(tokens[start])
                    template = prior_by_id[item.fired_rule]
                    assert template.match(tokens, item.mention.token_span) \
                        == item.match_span

    def test_concatenation_is_disjunction(self, rules):
        records = [r for r in load_corpus(FIXTURES / "synthetic50.jsonl")
                   if "findings:" not in r.text.lower()]
        pairs = [(records[i], records[-(i + 1)]) for i in range(12)]
        for left, right in pairs:
            joined = make_report("r", left.text + " " + right.text)
            combined = label_report(joined, rules).value
            separate = max(
                label_report(make_report("l", left.text), rules).value,
                label_report(make_report("r", right.text), rules).value)
            assert combined == separate


# Prefix chains ("un" < "unchang" < "unchanged") in both modes, repeats
# allowed, so precedence and its file-order tie-break decide every token.
KEYWORD_TABLES = st.lists(
    st.builds(KeywordEntry,
              st.sampled_from(["un", "unchang", "unchanged", "pri", "prio",
                               "prior", "priors"]),
              st.booleans()),
    max_size=8)
TOKEN_SENTENCES = st.lists(
    st.lists(st.sampled_from(["u", "un", "unchang", "unchanged", "unchanging",
                              "pr", "pri", "prio", "prior", "priors",
                              "priority", "the"]), max_size=6),
    max_size=3)


class TestExtractMentionsEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(KEYWORD_TABLES, TOKEN_SENTENCES)
    @example([KeywordEntry("un", True), KeywordEntry("unchang", True),
              KeywordEntry("unchanged")], [["unchanged", "unchanging", "un"]])
    @example([KeywordEntry("prio", True), KeywordEntry("prio"),
              KeywordEntry("pri", True)], [["prio", "prior", "pri"]])
    def test_same_mentions_and_same_keyword_objects(self, keywords, tokens):
        rules = RuleSet(keywords=keywords, negation_patterns=[],
                        prior_patterns=[], change_verbs=frozenset())
        report = Report(id="r", sentences=[" ".join(s) for s in tokens],
                        tokens=tokens)
        want = reference_extract_mentions(report, rules)
        for _ in range(2):  # the second pass reads the memoized entries
            got = extract_mentions(report, rules)
            assert got == want
            assert [id(m.keyword) for m in got] == \
                [id(m.keyword) for m in want]


# Non-ASCII keywords: "früher", the final-sigma word "ας", and two stems
# that the Kelvin sign ("\u212a" lowercases to "k") and the dotted capital
# I ("İ" lowercases to "i" plus a combining dot) reach.
CUSTOM_RULES = RuleSet(
    keywords=[KeywordEntry("früher"), KeywordEntry("ας"),
              KeywordEntry("kv", stem=True), KeywordEntry("i\u0307", stem=True)],
    negation_patterns=[parse_template("neg-no", "no ..1 {m}")],
    prior_patterns=[parse_template("prior-exam", "{m} ..1 exam|film"),
                    parse_template("marker-compared", "compared to {m}")],
    change_verbs=frozenset())
CUSTOM_RULES.validate()
# Built directly and unvalidated: its one surface crosses a sentence
# boundary, so it is in the findings text but can never be a token.
STRADDLING_RULES = RuleSet(
    keywords=[KeywordEntry("clear. prior")], negation_patterns=[],
    prior_patterns=[parse_template("prior-any", "{m}")],
    change_verbs=frozenset())
RULE_SETS = {"default": default_rules(), "custom": CUSTOM_RULES,
             "straddling": STRADDLING_RULES}

TEXT_PIECES = [
    "prior", "Prior", "PRIOR", "nonprior", "again", "Increased", "unchanged",
    "interval", "compared", "to", "no", "exam", "film", "since", "from", "in",
    "the", "seen", "noted", "not", "available", "recommended", "comparison",
    "with", "study", "change", "without", "absence", "of", "similar",
    "previously", "worsening", "früher", "FRÜHER",
    "ΑΣ", "ας", "Σ", "ς", "İ", "İ\u0307", "\u212aV", "kv", "clear", "findings:",
    "FINDINGS:", "impression:", "IMPRESSION:", "vs.", "Dr.", "B.", ".", "!",
    "?", "?!.", ",", "\u201c", "\u201d", " ", "  ", "\n", "\t", "\xa0", "\x85",
    "\x1c", "\x1f", "\u3000"]
TEXTS = st.lists(st.one_of(st.sampled_from(TEXT_PIECES), st.text(max_size=2)),
                 max_size=24).map("".join)


def records_of(texts):
    return [CorpusRecord(id=f"r{i}", text=text, reference=text[::-1],
                         candidate=text.upper())
            for i, text in enumerate(texts)]


def screened_reference_report(report_id, raw_text, rules):
    """``reference_make_report`` with a section whose lowercase holds no
    keyword surface left without sentences, and such a sentence without
    tokens."""
    def holds_surface(text):
        return any(entry.surface in text.lower() for entry in rules.keywords)
    if not holds_surface(extract_findings(raw_text)):
        return Report(report_id, [], [])
    report = reference_make_report(report_id, raw_text)
    return report._replace(tokens=[
        tokens if holds_surface(sentence) else []
        for sentence, tokens in zip(report.sentences, report.tokens)])


class TestLabelCorpusEqualsReference:
    """``label_corpus`` labels reports that ``make_report`` screened for
    keyword surfaces, and tries only the templates whose literals a
    sentence holds; the full chain does neither."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RULE_SETS)), st.lists(TEXTS, max_size=4))
    @example("default", ["İİİ FINDINGS: Stable compared to prior exam. "
                         "IMPRESSION: none."])
    @example("default", ["FINDINGS: İ nonprior opacity. IMPRESSION: prior."])
    @example("custom", ["\u212aVp compared to früher. No ΑΣ film."])
    @example("custom", ["ΑΣ. exam", "ΑΣ exam.", "Stable ΑΣ.\x85film"])
    @example("custom", ["İNDEX film. FRÜHER exam!"])
    @example("straddling", ["FINDINGS: Lungs clear. Prior film."])
    def test_labels_equal_the_full_chain(self, rules_name, texts):
        rules = RULE_SETS[rules_name]
        records = records_of(texts)
        for source in ("text", "reference", "candidate"):
            want = reference_label_corpus(records, rules, source)
            labels, counts = label_corpus(records, rules, text_source=source)
            assert labels == want
            assert counts.positive == sum(label.value for label in want)
        for record in records:
            for text in (record.text, record.reference, record.candidate):
                assert make_report(record.id, text) == \
                    reference_make_report(record.id, text)
                assert make_report(record.id, text, rules) == \
                    screened_reference_report(record.id, text, rules)

    def test_straddling_surface_passes_the_screen_and_labels_0(self):
        findings = "Lungs clear. Prior film."
        assert STRADDLING_RULES.may_mention(findings)
        labels, _ = label_corpus(records_of([findings]), STRADDLING_RULES)
        assert labels == [PriorLabel(0, ())]

    def test_only_sentences_holding_a_surface_are_tokenized(self, rules,
                                                            monkeypatch):
        split, tokenized = [], []

        def recording_split(findings):
            split.append(findings)
            return split_sentences(findings)

        def recording_tokenize(sentence):
            tokenized.append(sentence)
            return tokenize(sentence)
        monkeypatch.setattr(corpus, "split_sentences", recording_split)
        monkeypatch.setattr(corpus, "tokenize", recording_tokenize)
        texts = ["FINDINGS: Lungs clear. Stable since PRIOR film. Heart "
                 "normal. Nonprior opacity! IMPRESSION: Prior exam.",
                 "Heart normal. Lungs clear!",
                 "No effusion. Unchanged from XXXX."]
        records = records_of(texts)
        labels, counts = label_corpus(records, rules)
        assert split == ["Lungs clear. Stable since PRIOR film. Heart "
                         "normal. Nonprior opacity!", texts[2]]
        assert tokenized == ["Stable since PRIOR film.", "Nonprior opacity!",
                             "Unchanged from XXXX."]
        assert labels == reference_label_corpus(records, rules)
        assert [label.value for label in labels] == [1, 0, 1]
        assert [item.mention.sentence_index for label in labels
                for item in label.evidence] == [1, 1]

    def test_keyword_free_sections_skip_extraction(self, rules, monkeypatch):
        extracted = []

        def counting_extract(report, rules):
            extracted.append(report.id)
            return extract_mentions(report, rules)
        monkeypatch.setattr(labeler, "extract_mentions", counting_extract)
        records = records_of(["Heart normal. Lungs clear!",
                              "No effusion. Unchanged from XXXX.",
                              "FINDINGS: Lungs clear. IMPRESSION: Prior exam."])
        labels, counts = label_corpus(records, rules)
        assert extracted == ["r1"]
        assert labels == reference_label_corpus(records, rules)
        assert labels[0] is labels[2]
        assert counts.positive == 1

    def test_each_distinct_sentence_is_tokenized_once_per_call(
            self, rules, monkeypatch):
        tokenized, extracted = [], []

        def recording_tokenize(sentence):
            tokenized.append(sentence)
            return tokenize(sentence)

        def recording_extract(report, rules):
            extracted.append((report.id, report.sentences))
            return extract_mentions(report, rules)
        monkeypatch.setattr(corpus, "tokenize", recording_tokenize)
        monkeypatch.setattr(labeler, "extract_mentions", recording_extract)
        prior, negated = "Stable since PRIOR film.", "No prior study."
        records = records_of([
            f"Heart normal. {prior} Lungs clear.",
            f"Lungs clear! {negated} {prior} {prior}",
            f"FINDINGS: {negated} IMPRESSION: Unchanged.",
            "Heart normal. Lungs clear!"])
        for _ in range(2):
            labels, _ = label_corpus(records, rules)
            assert tokenized == [prior, negated]
            assert extracted == [("r0", [prior]), ("r1", [negated])]
            assert labels == reference_label_corpus(records, rules)
            tokenized.clear()
            extracted.clear()
        assert [[item.mention.sentence_index for item in label.evidence]
                for label in labels] == [[1], [2, 3], [], []]

    def test_may_mention_reads_the_lowercase(self):
        assert CUSTOM_RULES.may_mention("\u212aV")
        assert CUSTOM_RULES.may_mention("İ")
        assert CUSTOM_RULES.may_mention("Α ΑΣ.")
        assert not CUSTOM_RULES.may_mention("Α ΑΣΑ")
        assert not CUSTOM_RULES.may_mention("K\u0307")


# Sentences that recur across and within records, at any index, with
# and without keyword surfaces, in and out of a findings section.
SENTENCE_POOL = [
    "Stable compared to prior exam.", "STABLE COMPARED TO PRIOR EXAM.",
    "No prior studies available.", "Opacity again noted.",
    "Increased opacity.", "Unchanged since XXXX.", "The lungs are clear.",
    "Heart size is normal!", "Prior film.", "Compared to früher film.",
    "No ΑΣ film.", "\u212aVp since früher.", "FINDINGS:", "IMPRESSION:"]
POOL_TEXTS = st.lists(st.sampled_from(SENTENCE_POOL), max_size=8).map(" ".join)


class TestSentenceCacheEqualsReference:
    """``label_corpus`` labels each distinct sentence once per call."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RULE_SETS)),
           st.lists(st.tuples(POOL_TEXTS, POOL_TEXTS), max_size=6))
    def test_labels_equal_the_full_chain(self, rules_name, texts):
        rules = RULE_SETS[rules_name]
        records = [CorpusRecord(id=f"r{i}", text=text, candidate=candidate)
                   for i, (text, candidate) in enumerate(texts)]
        for source in ("text", "candidate"):
            labels, counts = label_corpus(records, rules, text_source=source)
            assert labels == reference_label_corpus(records, rules, source)
            assert counts.positive == sum(label.value for label in labels)


def template_vocabulary(rules):
    """Every literal choice and keyword surface of ``rules``, plus filler."""
    words = {entry.surface for entry in rules.keywords}
    for template in rules.negation_patterns + rules.prior_patterns:
        for atom in template.pre + template.post:
            words.update(getattr(atom, "choices", ()))
    return sorted(words) + ["opacity", "increased", "unchanging", "kvp", "."]


@st.composite
def template_sentences(draw, rules):
    """Token lists around one template of ``rules``, its literals and gaps
    filled from the vocabulary, or vocabulary tokens alone."""
    words = st.sampled_from(template_vocabulary(rules))
    noise = st.lists(words, max_size=4)
    if draw(st.booleans()):
        return draw(st.lists(words, max_size=12))
    template = draw(st.sampled_from(rules.negation_patterns
                                    + rules.prior_patterns))

    def side(atoms):
        tokens = []
        for atom in atoms:
            if hasattr(atom, "choices"):
                tokens.append(draw(st.sampled_from(atom.choices)))
            else:
                tokens += draw(st.lists(words, max_size=atom.max))
        return tokens
    pre = side(template.pre)[::-1]
    mention = draw(words)
    return draw(noise) + pre + [mention] + side(template.post) + draw(noise)


INDEXED_RULES = sorted(set(RULE_SETS) - {"straddling"})


class TestTemplateIndex:
    """``RuleSet.templates_for`` leaves out only templates that cannot match."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(INDEXED_RULES), st.data())
    def test_every_matching_template_is_offered_in_file_order(self, rules_name,
                                                              data):
        rules = RULE_SETS[rules_name]
        tokens = data.draw(template_sentences(rules))
        offered_lists = rules.templates_for(tokens)
        for offered, patterns in zip(offered_lists, (rules.negation_patterns,
                                                     rules.prior_patterns)):
            offered_ids = {id(template) for template in offered}
            assert offered == tuple(template for template in patterns
                                    if id(template) in offered_ids)
            for position in range(len(tokens)):
                for template in patterns:
                    if template.match(tokens, (position, position + 1)):
                        assert id(template) in offered_ids

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(INDEXED_RULES), st.data())
    def test_label_report_equals_the_full_chain(self, rules_name, data):
        rules = RULE_SETS[rules_name]
        tokens = data.draw(st.lists(template_sentences(rules), max_size=3))
        report = Report(id="r", sentences=[" ".join(t) for t in tokens],
                        tokens=tokens)
        assert label_report(report, rules) == \
            reference_label_report(report, rules)

    def test_offers_are_remembered_per_literal_set(self, rules):
        first = rules.templates_for(["no", "prior", "study"])
        assert rules.templates_for(["study", "prior", "no", "no"]) is first
        negations, priors = first
        assert [t.rule_id for t in negations] == ["neg-no"]
        assert [t.rule_id for t in priors] == ["prior-exam-noun"]


@pytest.fixture(scope="module")
def bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchCorporaEqualReference:
    """The bench's generated corpora, at a reduced size, label alike."""

    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize("workload, count, source", [
        ("label-reports", 1000, "text"), ("analyze-long", 100, "candidate")])
    def test_labels_equal_the_full_chain(self, rules, bench_gen, tmp_path,
                                         workload, count, source, seed):
        truth = bench_gen.generate(workload, seed, tmp_path, count)
        records = load_corpus(tmp_path / truth["input"])
        labels, _ = label_corpus(records, rules, text_source=source)
        assert labels == reference_label_corpus(records, rules, source)
