"""Rules-file parsing and template matching."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import radpriors
from oracles import reference_template_match
from radpriors.cli import run
from radpriors.corpus import make_report
from radpriors.labeler import label_report
from radpriors.rules import (DEFAULT_RULES_RESOURCE, KeywordEntry,
                             RuleFileError, _Gap, _Literal, default_rules,
                             load_rules, parse_template)

QUOTED_KEYWORDS = {"previous", "prior", "preceding", "previously", "again",
                   "comparison", "interval", "increase", "decrease",
                   "enlarge"}
BUNDLED = (Path(radpriors.__file__).parent / "data" /
           DEFAULT_RULES_RESOURCE).read_bytes()
FIXTURES = Path(__file__).parent / "fixtures"


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
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert str(err.value) == \
            "line 4: change verb 'increase' is not a keyword"

    def test_change_verb_may_come_before_its_keyword(self, tmp_path):
        path = tmp_path / "ok.rules"
        path.write_text("[change_verbs]\nincrease\n"
                        "[keywords]\nincrease stem\n", encoding="utf-8")
        assert load_rules(path).change_verbs == {"increase"}

    def test_duplicate_keyword_rejected(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[keywords]\nprior\nprior stem\n", encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert str(err.value) == \
            "line 3: duplicate keyword 'prior', first on line 2"

    @pytest.mark.parametrize("content, line, first", [
        ("[priors]\nr1: {m} study\nr1: {m} exam\n", 3, 2),
        ("[negations]\nr1: no {m}\n\n[priors]\nr1: {m} study\n", 5, 2),
    ], ids=["one-section", "across-sections"])
    def test_duplicate_rule_id_rejected(self, tmp_path, content, line, first):
        path = tmp_path / "bad.rules"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert str(err.value) == \
            f"line {line}: duplicate rule id 'r1', first on line {first}"

    def test_repeat_is_refused_ahead_of_a_later_bad_line(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[keywords]\nprior\nprior\n[change_verbs]\nincrease\n"
                        "[priors]\nr1: compared to\n", encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert err.value.line == 3

    def test_keyword_case_normalized_on_load(self, tmp_path):
        path = tmp_path / "mixed.rules"
        path.write_text("[keywords]\nPrior\n", encoding="utf-8")
        assert [k.surface for k in load_rules(path).keywords] == ["prior"]

    @pytest.mark.parametrize("content, line, message", [
        ("[keywords]\nprior\n[priors]\np1: compared to {m} exam.\n"
         "p2: compared to {m} exam\n", 4,
         "template 'p1': literal 'exam.' can never equal a token"),
        ("[priors]\np1: {m} exam|(film\n", 2,
         "template 'p1': literal '(film' can never equal a token"),
        ("[keywords]\nprior,\n", 2, "keyword 'prior,' can never equal a token"),
        ("[keywords]\nprior\n\u201cprior\n", 3,
         "keyword '\u201cprior' can never equal a token"),
        ("[keywords]\n,prior stem\n", 2,
         "keyword ',prior' can never start a token"),
        ("[keywords]\n\u201cprior stem\n", 2,
         "keyword '\u201cprior' can never start a token"),
    ], ids=["literal", "alternation", "keyword", "unicode-keyword", "stem",
            "unicode-stem"])
    def test_rule_that_can_never_fire_is_refused(self, tmp_path, content,
                                                 line, message):
        path = tmp_path / "bad.rules"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_stem_may_end_in_punctuation_kept_inside_a_token(self, tmp_path):
        path = tmp_path / "ok.rules"
        path.write_text("[keywords]\nx- stem\n[priors]\np1: {m} x-ray\n",
                        encoding="utf-8")
        rules = load_rules(path)
        assert rules.keyword_for("x-ray") == KeywordEntry("x-", stem=True)
        report = make_report("r", "Stable x-ray x-ray.")
        assert label_report(report, rules).value == 1


class TestReadingRulesFiles:
    """A rules file is UTF-8 with an optional BOM, and its lines end at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``."""

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"],
                             ids=["no-bom", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    def test_bundled_rules_load_alike(self, tmp_path, bom, newline):
        path = tmp_path / "copy.rules"
        path.write_bytes(bom + BUNDLED.replace(b"\n", newline))
        assert load_rules(path) == default_rules()

    def test_invalid_utf8_names_its_line_and_byte_offset(self):
        with pytest.raises(RuleFileError) as err:
            load_rules(FIXTURES / "errors" / "invalid-utf8.rules")
        assert (err.value.line, err.value.byte_offset) == (3, 17)
        assert str(err.value).startswith("line 3: invalid UTF-8: ")
        assert str(err.value).endswith(" (byte offset 17)")

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_cr_and_lf_end_a_line(self, tmp_path, separator):
        path = tmp_path / "bad.rules"
        path.write_text(f"[keywords]\nprior{separator}again\n",
                        encoding="utf-8")
        with pytest.raises(RuleFileError) as err:
            load_rules(path)
        assert err.value.line == 2
        assert "bad keyword line" in str(err.value)

    def _label(self, tmp_path, rules_bytes):
        """The ``label`` output on the fixture corpus under these rules."""
        rules_path = tmp_path / "edited.rules"
        rules_path.write_bytes(rules_bytes)
        out = tmp_path / "labels.jsonl"
        assert run(["label", "--in", str(FIXTURES / "synthetic50.jsonl"),
                    "--out", str(out), "--rules", str(rules_path)]) == 0
        return out.read_bytes()

    def test_bom_and_comment_line_separator_label_as_bundled(self, tmp_path,
                                                            capsys):
        bundled = self._label(tmp_path, BUNDLED)
        assert self._label(tmp_path, b"\xef\xbb\xbf" + BUNDLED) == bundled
        # The comment's tail would be a keyword if the separator ended it.
        comment = "[keywords]\n# not listed:{}opacity\n"
        inside, ended = (BUNDLED.replace(
            b"[keywords]\n", comment.format(separator).encode("utf-8"))
            for separator in ("\u2028", "\n"))
        assert self._label(tmp_path, inside) == bundled
        assert self._label(tmp_path, ended) != bundled
        capsys.readouterr()


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

    @pytest.mark.parametrize("text, tokens, span", [
        ("x " + "..9 a " * 6 + "{m}", ["a"] * 300 + ["prior"], (300, 301)),
        ("{m} " + "a ..9 " * 6 + "x", ["prior"] + ["a"] * 300, (0, 1)),
    ], ids=["before", "after"])
    def test_each_atom_reads_each_position_at_most_once(self, text, tokens,
                                                        span):
        # No "x" anywhere, so every placement of the six gaps fails:
        # backtracking through all of them reads tokens exponentially often.
        sentence = _CountingTokens(tokens)
        assert parse_template("r", text).match(sentence, span) is None
        literal_atoms = 7
        assert 0 < sentence.reads <= literal_atoms * len(tokens)


class _CountingTokens(list):
    """A sentence that counts its item reads: one per (atom, position)."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


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


# Gap-heavy templates, always well formed: each side alternates literals
# and gaps and ends in a literal, so many gap placements fail and the
# remembered failures are exercised.
LINKS = st.tuples(st.sampled_from(["a", "b", "a|b"]),
                  st.sampled_from(["", "..0", "..1", "..2", "..3"]))
GAPPY_TEMPLATES = st.builds(
    lambda pre, post: " ".join(
        [f"{literal} {gap}" for literal, gap in pre] + ["{m}"]
        + [f"{gap} {literal}" for literal, gap in post]),
    st.lists(LINKS, max_size=6), st.lists(LINKS, max_size=6))


class TestMatcherEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(GAPPY_TEMPLATES, st.lists(st.sampled_from(["a", "b", "c"]),
                                     min_size=1, max_size=24))
    # Reading back from the mention at 6: "a" at 5 finds no "b" at 4..1,
    # but "a" at 4 finds "b" at 0. Position 4 failed for "b", not for "a".
    @example("b ..3 a ..1 {m}", ["b", "c", "c", "c", "a", "a", "c"])
    def test_match_equals_backtracking_reference(self, text, tokens):
        template = parse_template("r", text)
        for position in range(len(tokens)):
            span = (position, position + 1)
            assert template.match(tokens, span) == \
                reference_template_match(template, tokens, span)

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
