"""Rules-file parsing and template matching."""

import pytest
from hypothesis import example, given, settings, strategies as st

from radpriors.corpus import make_report
from radpriors.labeler import label_report
from radpriors.rules import (RuleFileError, RuleSet, _Gap, _Literal,
                             default_rules, load_rules, parse_template)

QUOTED_KEYWORDS = {"previous", "prior", "preceding", "previously", "again",
                   "comparison", "interval", "increase", "decrease",
                   "enlarge"}


class TestDefaultRules:
    def test_contains_expected_keywords(self):
        rules = default_rules()
        surfaces = {entry.surface for entry in rules.keywords}
        assert QUOTED_KEYWORDS <= surfaces

    def test_change_verbs_are_keywords(self):
        rules = default_rules()
        surfaces = {entry.surface for entry in rules.keywords}
        assert rules.change_verbs <= surfaces

    def test_has_version(self):
        assert default_rules().version == "1"

    def test_rule_ids_unique(self):
        rules = default_rules()
        ids = [t.rule_id for t in rules.negation_patterns + rules.prior_patterns]
        assert len(ids) == len(set(ids))

    def test_validates(self):
        default_rules().validate()


class TestLoadRules:
    def test_empty_keywords_section_labels_everything_zero(self, tmp_path):
        path = tmp_path / "empty.rules"
        path.write_text("[keywords]\n[negations]\n[priors]\n[change_verbs]\n",
                        encoding="utf-8")
        rules = load_rules(path)
        assert rules.keywords == ()
        report = make_report("r", "Unchanged compared to prior examination.")
        assert label_report(report, rules).value == 0

    def test_template_without_placeholder_is_rejected(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[priors]\nr1: compared to\n", encoding="utf-8")
        with pytest.raises(RuleFileError, match="r1"):
            load_rules(path)

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[keywords]\nprior\nword extra junk\n",
                        encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert err.value.line == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[bogus]\n", encoding="utf-8")
        with pytest.raises(RuleFileError, match="bogus"):
            load_rules(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.rules"
        path.write_text(
            "# version: 7\n\n[keywords]\n# a comment\nprior\n\n"
            "[priors]\nr1: {m} study\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.version == "7"
        assert [k.surface for k in rules.keywords] == ["prior"]
        assert [t.rule_id for t in rules.prior_patterns] == ["r1"]

    def test_change_verb_must_be_a_keyword(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[keywords]\nprior\n[change_verbs]\nincrease\n",
                        encoding="utf-8")
        with pytest.raises(RuleFileError, match="increase"):
            load_rules(path)

    def test_duplicate_keyword_rejected(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[keywords]\nprior\nprior stem\n", encoding="utf-8")
        with pytest.raises(RuleFileError, match="prior"):
            load_rules(path)

    def test_keyword_case_normalized_on_load(self, tmp_path):
        path = tmp_path / "mixed.rules"
        path.write_text("[keywords]\nPrior\n", encoding="utf-8")
        assert [k.surface for k in load_rules(path).keywords] == ["prior"]


class TestParseTemplate:
    def test_two_placeholders_rejected(self):
        with pytest.raises(RuleFileError):
            parse_template("r", "{m} and {m}")

    def test_gap_at_edge_rejected(self):
        with pytest.raises(RuleFileError):
            parse_template("r", "..2 {m}")
        with pytest.raises(RuleFileError):
            parse_template("r", "{m} ..2")

    def test_empty_alternation_branch_rejected(self):
        with pytest.raises(RuleFileError):
            parse_template("r", "a| {m}")

    def test_malformed_gap_rejected(self):
        for gap in ("..x", "..", "..²"):
            with pytest.raises(RuleFileError):
                parse_template("r", f"a {gap} {{m}}")

    def test_marker_prefix_detection(self):
        assert parse_template("marker-compared", "compared to {m}").is_marker
        assert not parse_template("prior-noted", "{m} noted").is_marker


class TestTemplateMatching:
    def test_literal_before_mention(self):
        t = parse_template("r", "compared to {m}")
        tokens = ["compared", "to", "prior", "examination"]
        assert t.match(tokens, (2, 3)) == (0, 3)

    def test_alternation(self):
        t = parse_template("r", "compared|similar to {m}")
        assert t.match(["similar", "to", "prior"], (2, 3)) == (0, 3)
        assert t.match(["identical", "to", "prior"], (2, 3)) is None

    def test_gap_bounds(self):
        t = parse_template("r", "compared ..2 {m}")
        assert t.match(["compared", "prior"], (1, 2)) == (0, 2)
        assert t.match(["compared", "a", "b", "prior"], (3, 4)) == (0, 4)
        assert t.match(["compared", "a", "b", "c", "prior"], (4, 5)) is None

    def test_minimal_gap_wins(self):
        # Both the first and second "to" can satisfy the template; the
        # match must bind the one closest to the mention.
        t = parse_template("r", "to ..3 {m}")
        tokens = ["to", "go", "to", "prior"]
        assert t.match(tokens, (3, 4)) == (2, 4)

    def test_forward_atoms_after_mention(self):
        t = parse_template("r", "{m} ..2 noted")
        assert t.match(["again", "noted"], (0, 1)) == (0, 2)
        assert t.match(["again", "was", "faintly", "noted"], (0, 1)) == (0, 4)
        assert t.match(["again", "a", "b", "c", "noted"], (0, 1)) is None

    def test_match_is_anchored_at_the_mention(self):
        t = parse_template("r", "compared to {m}")
        tokens = ["compared", "to", "prior", "and", "prior"]
        # The second "prior" is not preceded by "compared to".
        assert t.match(tokens, (4, 5)) is None

    def test_span_covers_template_extent(self):
        t = parse_template("r", "in the {m}")
        tokens = ["cleared", "in", "the", "interval"]
        assert t.match(tokens, (3, 4)) == (1, 4)


class TestRuleSetValidate:
    def test_duplicate_rule_ids_rejected(self):
        rules = RuleSet(
            keywords=[],
            negation_patterns=[parse_template("r1", "no {m}")],
            prior_patterns=[parse_template("r1", "{m} study")],
            change_verbs=frozenset())
        with pytest.raises(RuleFileError, match="r1"):
            rules.validate()

    def test_uppercase_keyword_rejected(self):
        from radpriors.rules import KeywordEntry
        rules = RuleSet(keywords=[KeywordEntry("Prior")],
                        negation_patterns=[], prior_patterns=[],
                        change_verbs=frozenset())
        with pytest.raises(RuleFileError, match="lowercase"):
            rules.validate()


# Reference matcher: the parser and the two mirrored recursive matchers
# that RuleTemplate.match used before the index-based one. Atoms stay in
# template order on both sides; the compiled template must match exactly
# as these do.
_MENTION = object()


def reference_parse(text):
    """Return the atoms before and after {m}, or raise RuleFileError."""
    atoms = []
    mention_index = None
    parts = text.split()
    if not parts:
        raise RuleFileError("empty")
    for part in parts:
        if part == "{m}":
            if mention_index is not None:
                raise RuleFileError("more than one {m}")
            mention_index = len(atoms)
            atoms.append(_MENTION)
        elif part.startswith(".."):
            digits = part[2:]
            if not digits.isdigit():
                raise RuleFileError("bad gap atom")
            atoms.append(_Gap(int(digits)))
        else:
            choices = tuple(choice for choice in part.lower().split("|"))
            if any(not choice for choice in choices):
                raise RuleFileError("empty alternation branch")
            atoms.append(_Literal(choices))
    if mention_index is None:
        raise RuleFileError("missing {m}")
    if isinstance(atoms[0], _Gap) or isinstance(atoms[-1], _Gap):
        raise RuleFileError("gap at an edge")
    return tuple(atoms[:mention_index]), tuple(atoms[mention_index + 1:])


def reference_match_back(atoms, tokens, end):
    if not atoms:
        return end
    atom = atoms[-1]
    rest = atoms[:-1]
    if isinstance(atom, _Gap):
        for width in range(atom.max + 1):
            if end - width < 0:
                break
            found = reference_match_back(rest, tokens, end - width)
            if found is not None:
                return found
        return None
    if end - 1 < 0 or tokens[end - 1] not in atom.choices:
        return None
    return reference_match_back(rest, tokens, end - 1)


def reference_match_forward(atoms, tokens, start):
    if not atoms:
        return start
    atom = atoms[0]
    rest = atoms[1:]
    if isinstance(atom, _Gap):
        for width in range(atom.max + 1):
            if start + width > len(tokens):
                break
            found = reference_match_forward(rest, tokens, start + width)
            if found is not None:
                return found
        return None
    if start >= len(tokens) or tokens[start] not in atom.choices:
        return None
    return reference_match_forward(rest, tokens, start + 1)


def reference_match(pre, post, tokens, span):
    start = reference_match_back(pre, tokens, span[0])
    if start is None:
        return None
    end = reference_match_forward(post, tokens, span[1])
    if end is None:
        return None
    return (start, end)


# A three-word vocabulary, so literals and alternations often match; the
# malformed atoms and a stray {m} exercise every parse error.
TEMPLATE_ATOMS = st.sampled_from([
    "a", "b", "c", "a|b", "B|c", "c|a|b", "..0", "..1", "..2", "..3",
    "..x", "a|", "{m}"])
TEMPLATES = st.builds(
    lambda pre, post: " ".join(pre + ["{m}"] + post),
    st.lists(TEMPLATE_ATOMS, max_size=4), st.lists(TEMPLATE_ATOMS, max_size=4))
SENTENCES = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                     max_size=9)


class TestMatcherEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(TEMPLATES, SENTENCES)
    @example("a ..2 b {m} ..1 c", ["a", "b", "a", "b", "d", "d", "c"])
    @example("b ..3 {m} ..0 a", ["b", "b", "d", "b", "a"])
    @example("a {m}", ["d"])
    def test_parse_and_match_equal_reference(self, text, tokens):
        try:
            want = reference_parse(text)
        except RuleFileError:
            with pytest.raises(RuleFileError):
                parse_template("r", text)
            return
        template = parse_template("r", text)
        for position in range(len(tokens)):
            span = (position, position + 1)
            assert template.match(tokens, span) == \
                reference_match(*want, tokens, span)
