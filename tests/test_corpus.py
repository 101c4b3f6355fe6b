"""Corpus loading, findings extraction, sentence splitting, tokenizing."""

import csv
import json
import re
import string
import sys
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from oracles import reference_split_sentences
from radpriors.corpus import (CorpusError, CorpusRecord, extract_findings,
                              load_corpus, make_report, split_sentences,
                              tokenize)

# Final words must not look like guarded abbreviations ("vs.", "dr.", ...).
WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=8) \
    .filter(lambda w: w not in {"dr", "mr", "mrs", "ms", "vs"})


class TestExtractFindings:
    def test_header_to_impression(self):
        text = "FINDINGS: Lungs clear. IMPRESSION: Normal."
        assert extract_findings(text) == "Lungs clear."

    def test_no_header_is_passthrough(self):
        assert extract_findings("Lungs clear.") == "Lungs clear."

    def test_case_insensitive_header_and_whitespace_trim(self):
        assert extract_findings("findings:\nHeart normal.") == "Heart normal."

    def test_recommendation_also_ends_the_section(self):
        text = "FINDINGS: Effusion. RECOMMENDATION: Follow-up."
        assert extract_findings(text) == "Effusion."

    def test_header_without_stop_runs_to_end(self):
        assert extract_findings("FINDINGS: Stable exam.") == "Stable exam."

    def test_findings_is_substring_of_raw_text(self):
        raw = "Preamble. FINDINGS: Heart normal. IMPRESSION: OK."
        assert extract_findings(raw) in raw

    # "İ" lowercases to two characters, "i" and a combining dot, so the
    # header offsets found in the lowercase are not offsets in the text.
    def test_dotted_capital_i_before_header(self):
        raw = "İİİ FINDINGS: Stable compared to prior exam. IMPRESSION: none."
        assert extract_findings(raw) == "Stable compared to prior exam."

    def test_dotted_capital_i_inside_section(self):
        raw = "FINDINGS: İİ stable. IMPRESSION: İ none."
        assert extract_findings(raw) == "İİ stable."

    def test_dotted_capital_i_before_a_stop_header_at_the_end(self):
        raw = "İİİİ findings: clear. impression:"
        assert extract_findings(raw) == "clear."

    @given(st.lists(st.sampled_from(
        ["İ", "FINDINGS:", "findings:", "IMPRESSION:", "recommendation:",
         "İMPRESSION:", "fİndings:", " ", "a", "."]), max_size=12).map("".join))
    def test_dotted_capital_i_takes_the_place_of_one_character(self, raw):
        # "X" lowercases to one character that is in no header, as "İ"
        # is in none, so both texts cut the same span.
        plain = extract_findings(raw.replace("İ", "X"))
        assert extract_findings(raw).replace("İ", "X") == plain


class TestSplitSentences:
    def test_two_plain_sentences(self):
        text = "Heart normal. Lungs clear."
        assert split_sentences(text) == ["Heart normal.", "Lungs clear."]

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_abbreviation_guard_vs(self):
        assert split_sentences("Stable vs. prior exam.") == \
            ["Stable vs. prior exam."]

    def test_abbreviation_guard_honorific(self):
        assert split_sentences("Dr. XXXX reviewed the study.") == \
            ["Dr. XXXX reviewed the study."]

    def test_single_letter_guard(self):
        # "B." reads as an initial, not a sentence end.
        text = "Image B. shows the nodule."
        assert split_sentences(text) == ["Image B. shows the nodule."]

    def test_question_and_exclamation_split(self):
        text = "Effusion? No. Clear!"
        assert split_sentences(text) == ["Effusion?", "No.", "Clear!"]

    @given(a=st.lists(WORDS, min_size=2, max_size=5),
           b=st.lists(WORDS, min_size=2, max_size=5))
    def test_concatenating_two_sentences_splits_back(self, a, b):
        """Joining two period-ended sentences splits into exactly those two."""
        first = " ".join(a) + "."
        second = " ".join(b) + "."
        assert split_sentences(first + " " + second) == [first, second]


# Boundary whitespace beyond ASCII: the information separators, NEL, NBSP.
SPLIT_TEXTS = st.lists(st.one_of(
    st.sampled_from([".", "!", "?", "?!.", "..", " ", "\t", "\n", "\r", "\x0b",
                     "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                     "\u2028", "\u3000", "vs", "Dr", "e.g", "a.m", "B", "x",
                     "İ", "lungs", "XXXX"]),
    st.text(max_size=3)), max_size=20).map("".join)


class TestSplitSentencesEqualsReference:
    @given(SPLIT_TEXTS)
    @example("Clear.")
    @example("Clear?!.")
    @example("Effusion?!. No.\x1cClear!\x85Stable.\xa0Done?")
    @example("Stable vs.\x1fprior. B.\x1d x")
    @example(".")
    @example("Abcd. İİİİ. ΑΣΑΣ.\x85a.m. E.G. Xy3z. Mrs. x.")
    def test_regex_boundaries_match_the_loop(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    def test_regex_whitespace_is_str_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


# Characters whose lowercase differs in length or by context: final
# sigma, dotted capital I, the Kelvin sign, capital sharp s.
CASED_TEXTS = st.lists(st.one_of(
    st.sampled_from(["Σ", "ΑΣ", "İ", "\u212a", "ẞ", "\x85", ".", "!", "?",
                     " ", "Dr", "VS", "E.G", "A.M", "B", "x", "FINDINGS:"]),
    st.text(max_size=3)), max_size=20).map("".join)


class TestSplitSentencesOfTheLowercase:
    """The labeling engine splits a findings section's lowercase."""

    @given(CASED_TEXTS)
    @example("ΑΣ. exam")
    @example("İ. Stable.")
    @example("\u212a. film")
    @example("Dr. XXXX. Dr.")
    @example("ΑΣ.\x85film İ.\x85")
    def test_sentences_of_the_lowercase_are_the_lowercase_sentences(
            self, findings):
        assert split_sentences(findings.lower()) == \
            [sentence.lower() for sentence in split_sentences(findings)]

    def test_the_section_is_lowercased_after_it_is_cut(self):
        # A final sigma lowercases by the letters before it.
        assert extract_findings("p.FINDINGS:Σ").lower() == "σ"
        assert extract_findings("p.FINDINGS:Σ".lower()) == "ς"


class TestTokenize:
    def test_strips_trailing_period_and_lowercases(self):
        assert tokenize("Compared to prior examination.") == \
            ["compared", "to", "prior", "examination"]

    def test_mask_token_normalized(self):
        assert tokenize("XXXX") == ["xxxx"]

    def test_internal_hyphen_preserved(self):
        assert tokenize("ill-defined opacity") == ["ill-defined", "opacity"]

    def test_internal_slash_preserved(self):
        assert tokenize("AP/lateral views") == ["ap/lateral", "views"]

    def test_tokens_have_no_whitespace(self):
        for token in tokenize("Heart,  mediastinum;\tand lungs."):
            assert token
            assert not any(ch.isspace() for ch in token)

    @given(st.text(max_size=60))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @pytest.mark.parametrize("chunk", [
        "\u201cprior\u201d", "\u00abprior\u00bb", "prior\u2026",
        "(\u2018prior.\u2019)"])
    def test_unicode_punctuation_stripped(self, chunk):
        assert tokenize(chunk) == ["prior"]

    def test_unicode_punctuation_only_token_dropped(self):
        assert tokenize("heart \u2014 \u201c\u2026\u201d normal") == \
            ["heart", "normal"]

    def test_inner_unicode_punctuation_kept(self):
        assert tokenize("\u201cill-defined\u201d caf\u00e9\u2019s") == \
            ["ill-defined", "caf\u00e9\u2019s"]

    def test_unicode_punctuation_follows_the_interpreters_unicode(self):
        # U+11B00 is unassigned in Unicode 14.0 (Python 3.11) and
        # punctuation from Unicode 15.0 (Python 3.12) on, so the label
        # of the same text depends on the Python it runs under.
        from radpriors.labeler import label_report
        from radpriors.rules import default_rules

        text = "FINDINGS: Stable compared to prior\U00011B00 exam."
        label = label_report(make_report("r1", text), default_rules())
        punctuation = unicodedata.category("\U00011B00").startswith("P")
        assert label.value == (1 if punctuation else 0)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=60))
    def test_ascii_text_tokenizes_by_ascii_punctuation_alone(self, text):
        want = [t for t in (c.strip(string.punctuation)
                            for c in text.lower().split()) if t]
        assert tokenize(text) == want


class TestMakeReport:
    def test_findings_extracted_and_tokenized(self):
        raw = "FINDINGS: Heart normal. IMPRESSION: OK."
        report = make_report("r1", raw)
        assert extract_findings(raw) == "Heart normal."
        assert report.sentences == ["Heart normal."]
        assert report.tokens == [["heart", "normal"]]

    def test_sentences_rebuild_findings_up_to_whitespace(self):
        raw = "No  acute disease.   Stable exam."
        report = make_report("r2", raw)
        joined = " ".join(report.sentences)
        assert " ".join(joined.split()) == " ".join(raw.split())


class TestLoadCorpus:
    def _write(self, tmp_path, lines, name="corpus.jsonl"):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return path

    def test_two_lines_order_preserved(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"id": "a", "text": "Lungs clear."}),
            json.dumps({"id": "b", "text": "Heart normal."}),
        ])
        records = load_corpus(path)
        assert [r.id for r in records] == ["a", "b"]

    def test_empty_file(self, tmp_path):
        assert load_corpus(self._write(tmp_path, [])) == []

    def test_unknown_format_is_refused(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"id": "a", "text": "ok"})])
        with pytest.raises(CorpusError) as err:
            load_corpus(path, format="xml")
        assert str(err.value) == "unknown corpus format 'xml'"

    def test_missing_id_names_line_1(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"text": "No id."})])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert "line 1" in str(err.value)

    def test_malformed_json_carries_line_and_byte_offset(self, tmp_path):
        good = json.dumps({"id": "a", "text": "ok"})
        path = self._write(tmp_path, [good, "{not json"])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert err.value.byte_offset == len(good) + 1
        assert "line 2" in str(err.value)

    def test_duplicate_id_is_named(self, tmp_path):
        first = json.dumps({"id": "dup", "text": "one"})
        path = self._write(tmp_path, [
            first, json.dumps({"id": "dup", "text": "two"})])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == ("line 2: duplicate id 'dup', first on "
                                  f"line 1 (byte offset {len(first) + 1})")

    @pytest.mark.parametrize("format, lines, message", [
        ("jsonl", ['{"id": "a", "text": "x"}', '{"id": "a", "text": "y"}',
                   '{"id": "b", "text": }'],
         "line 2: duplicate id 'a', first on line 1 (byte offset 25)"),
        ("csv", ["id,text", 'a,"two', 'lines"', "a,y", "b,x,z"],
         "line 4: duplicate id 'a', first on line 2"),
    ], ids=["jsonl", "csv"])
    def test_duplicate_id_wins_over_a_later_bad_line(self, tmp_path, format,
                                                     lines, message):
        path = self._write(tmp_path, lines, f"corpus.{format}")
        with pytest.raises(CorpusError) as err:
            load_corpus(path, format=format)
        assert str(err.value) == message

    def test_label_validation(self, tmp_path):
        bad = self._write(tmp_path, [
            json.dumps({"id": "a", "text": "t", "label": 2})], "bad.jsonl")
        with pytest.raises(CorpusError, match="label"):
            load_corpus(bad)
        coerced = self._write(tmp_path, [
            json.dumps({"id": "a", "text": "t", "label": "1"})], "ok.jsonl")
        assert load_corpus(coerced)[0].gold_label == 1
        boolean = self._write(tmp_path, [
            json.dumps({"id": "a", "text": "t", "label": True})], "bool.jsonl")
        with pytest.raises(CorpusError, match="label"):
            load_corpus(boolean)

    def test_missing_optional_fields_stay_absent(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"id": "a", "text": "t"})])
        record = load_corpus(path)[0]
        assert record.reference is None
        assert record.candidate is None
        assert record.gold_label is None

    def test_csv_requires_id_and_text_columns(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,body\na,hello\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="text"):
            load_corpus(path, format="csv")

    @pytest.mark.parametrize("body, line", [
        ('a,"ok",0\nb,"two\nlines",7\n', 3),  # the record ends on line 4
        ('a,"ok",0\n\nb,ok,7\n', 4),  # a blank line holds no record
    ])
    def test_csv_error_names_the_line_the_record_starts_on(self, tmp_path,
                                                           body, line):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text,label\n" + body, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line {line}: field 'label'"):
            load_corpus(path, format="csv")

    @pytest.mark.parametrize("column",
                             ["id", "text", "reference", "candidate", "label"])
    def test_csv_repeated_column_is_refused(self, tmp_path, column):
        header = ["id", "text", "reference", "candidate", "label", column]
        path = tmp_path / "corpus.csv"
        path.write_text(",".join(header) + "\nr1,Stable compared to prior "
                        "exam.,Clear.,Clear.,0,Clear.\n", encoding="utf-8")
        with pytest.raises(CorpusError,
                           match=f"line 1: column '{column}' is repeated"):
            load_corpus(path, format="csv")

    def test_csv_repeated_unread_column_is_ignored(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text,note,note\nr1,Clear.,a,b\n",
                        encoding="utf-8")
        assert load_corpus(path, format="csv")[0].text == "Clear."

    @pytest.mark.parametrize("key",
                             ["id", "text", "reference", "candidate", "label"])
    def test_jsonl_repeated_key_is_refused(self, tmp_path, key):
        good = json.dumps({"id": "r0", "text": "Clear."})
        line = ('{"id": "r1", "text": "Stable compared to prior exam.", '
                '"reference": "Clear.", "candidate": "Clear.", "label": 0, '
                f'"{key}": "Clear."}}')
        path = self._write(tmp_path, [good, line])
        with pytest.raises(CorpusError,
                           match=f"line 2: key '{key}' is repeated") as err:
            load_corpus(path)
        assert err.value.byte_offset == len(good) + 1

    @pytest.mark.parametrize("line", [
        '{"id": "r1", "note": 1, "text": "Clear.", "note": 2, '
        '"meta": {"text": "a", "text": "b"}}',
        # The nested object is the last one the line's decoding finishes
        # before the top-level one.
        '{"meta": {"id": "a", "id": "b"}, "id": "r1", "text": "Clear.", '
        '"note": [{"text": "a", "text": "b"}]}',
    ])
    def test_jsonl_repeated_unread_key_loads(self, tmp_path, line):
        path = self._write(tmp_path, [line])
        assert load_corpus(path) == [CorpusRecord(id="r1", text="Clear.")]

    def test_jsonl_array_holding_a_repeated_key_is_not_an_object(self,
                                                                 tmp_path):
        path = self._write(tmp_path, ['[{"id": "r1", "id": "r2", '
                                      '"text": "Clear."}]'])
        with pytest.raises(CorpusError,
                           match="line 1: record is not a JSON object"):
            load_corpus(path)

    def test_jsonl_repeated_key_check_reads_each_line_afresh(self, tmp_path):
        # Line 1 builds an object that repeats "id"; line 2's record is
        # checked against its own keys alone.
        path = self._write(tmp_path, [
            '{"id": "r0", "text": "Clear.", "meta": [{"id": 1, "id": 2}]}',
            '{"id": "r1", "text": "Clear."}'])
        assert [record.id for record in load_corpus(path)] == ["r0", "r1"]

    def test_csv_row_longer_than_header_is_refused(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text\nr0,Clear.\nr1,Stable, compared to prior "
                        "exam.\n", encoding="utf-8")
        with pytest.raises(CorpusError,
                           match="line 3: row has 3 cells but the header "
                                 "names 2"):
            load_corpus(path, format="csv")

    def test_csv_row_shorter_than_header_lacks_optional_fields(self,
                                                               tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text,reference,label\nr1,Stable.\n",
                        encoding="utf-8")
        record = load_corpus(path, format="csv")[0]
        assert (record.text, record.reference, record.gold_label) == \
            ("Stable.", None, None)

    def test_csv_load(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            'id,text,reference,candidate,label\n'
            'a,"Lungs clear.","lungs clear","lungs are clear",0\n',
            encoding="utf-8")
        record = load_corpus(path, format="csv")[0]
        assert record.id == "a"
        assert record.reference == "lungs clear"
        assert record.gold_label == 0

    ROWS = [
        {"id": "a", "text": "Lungs clear."},
        {"id": "b", "text": 'Stable, compared to "prior"\nexam.',
         "reference": "heart normal", "candidate": "the heart is normal",
         "label": 1},
        {"id": "c", "text": ""},
    ]

    def _write_both(self, tmp_path):
        jsonl = self._write(tmp_path, [json.dumps(row) for row in self.ROWS])
        table = tmp_path / "corpus.csv"
        with open(table, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=[
                "id", "text", "reference", "candidate", "label"])
            writer.writeheader()
            writer.writerows(self.ROWS)
        return {"jsonl": jsonl, "csv": table}

    def test_jsonl_and_csv_load_equal_records(self, tmp_path):
        paths = self._write_both(tmp_path)
        records = load_corpus(paths["jsonl"])
        assert records == load_corpus(paths["csv"], format="csv")
        assert records[2].text == ""
        assert records[2].reference is None

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_utf8_bom_is_accepted(self, tmp_path, format):
        path = self._write_both(tmp_path)[format]
        want = load_corpus(path, format=format)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_corpus(path, format=format) == want

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_csv_invalid_utf8_names_the_line_the_reader_counts(
            self, tmp_path, newline):
        path = tmp_path / "corpus.csv"
        path.write_bytes(newline.join(["id,text", "a,ok", "b,Heart \xff."])
                         .encode("latin-1") + newline.encode())
        with pytest.raises(CorpusError) as err:
            load_corpus(path, format="csv")
        assert (err.value.line, err.value.byte_offset) == \
            (3, 11 + 2 * len(newline))

    @pytest.mark.parametrize("format, bad_line", [
        ("csv", "r1,Stable, compared to prior exam."),
        ("jsonl", '{"id": "r1", "text": "Stable.", "id": "r2"}'),
    ])
    def test_first_bad_line_wins_over_a_later_invalid_byte(
            self, tmp_path, format, bad_line):
        lines = [bad_line] + [f"r{n},Clear." if format == "csv" else
                              json.dumps({"id": f"r{n}", "text": "Clear."})
                              for n in range(2, 200)] + ["z,\xff"]
        if format == "csv":
            lines.insert(0, "id,text")
        path = tmp_path / f"corpus.{format}"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(CorpusError) as err:
            load_corpus(path, format=format)
        assert "invalid UTF-8" not in str(err.value)
        assert err.value.line == lines.index(bad_line) + 1

    def test_jsonl_lines_end_at_lf_only(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a",\r"text": "ok"}\r\n'
                         b'{"id": "b", "text": "ok"}\r\n')
        assert [record.id for record in load_corpus(path)] == ["a", "b"]

    def test_byte_offset_after_bom_counts_the_bom(self, tmp_path):
        good = json.dumps({"id": "a", "text": "ok"}).encode("utf-8")
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + good + b"\n{not json\n")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert err.value.byte_offset == 3 + len(good) + 1
