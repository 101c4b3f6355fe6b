"""The one reader of input lines and the location of a data error."""

import io

import pytest

from radpriors._io import DataError, split_cr, utf8_lines
from radpriors.corpus import CorpusError
from radpriors.metrics import EvaluationError
from radpriors.rules import RuleFileError


class TestDataError:
    @pytest.mark.parametrize("error", [CorpusError, RuleFileError])
    def test_input_errors_only_name_their_kind(self, error):
        assert "__init__" not in vars(error)

    @pytest.mark.parametrize("error",
                             [DataError, CorpusError, RuleFileError])
    @pytest.mark.parametrize("where, message", [
        ({}, "bad"),
        ({"line": 3}, "line 3: bad"),
        ({"line": 3, "byte_offset": 17}, "line 3: bad (byte offset 17)"),
    ])
    def test_location_reads_alike(self, error, where, message):
        exc = error("bad", **where)
        assert str(exc) == message
        assert (exc.line, exc.byte_offset) == \
            (where.get("line"), where.get("byte_offset"))

    def test_an_offset_without_a_line_is_not_shown(self):
        assert str(EvaluationError("bad", byte_offset=4)) == "bad"


class TestSplitCr:
    def test_lines_end_at_lf_crlf_and_lone_cr(self):
        raw = io.BytesIO(b"a\rb\r\nc\nd\re")
        assert list(split_cr(raw)) == [b"a\r", b"b\r\n", b"c\n", b"d\r", b"e"]

    def test_other_line_breaks_stay_inside_a_line(self):
        line = "a\x0bb\x0cc\x1cd\x85e\u2028f\u2029g\n".encode("utf-8")
        assert list(split_cr([line])) == [line]


class TestUtf8Lines:
    def test_numbers_offsets_and_text(self):
        raw = ["a\n".encode(), "“b”\n".encode(), b"c"]
        assert list(utf8_lines(raw, DataError)) == [
            (1, 0, "a\n"), (2, 2, "“b”\n"), (3, 10, "c")]

    def test_a_leading_bom_is_dropped_but_counted(self):
        raw = [b"\xef\xbb\xbfa\n", b"\xef\xbb\xbfb\n"]
        assert list(utf8_lines(raw, DataError)) == [
            (1, 0, "a\n"), (2, 5, "\ufeffb\n")]

    @pytest.mark.parametrize("error", [CorpusError, RuleFileError])
    def test_first_invalid_line_raises_the_callers_error(self, error):
        raw = [b"ok\n", b"bad \xff\n", b"\xfe\n"]
        with pytest.raises(error) as err:
            list(utf8_lines(raw, error))
        assert (err.value.line, err.value.byte_offset) == (2, 3)
        assert str(err.value) == (
            "line 2: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 4: invalid start byte (byte offset 3)")
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    def test_lines_are_read_as_they_are_yielded(self):
        lines = utf8_lines(iter([b"ok\n", b"\xff\n"]), DataError)
        assert next(lines) == (1, 0, "ok\n")
        with pytest.raises(DataError):
            next(lines)
