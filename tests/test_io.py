"""The one reader of input lines, the location of a data error, and the
one writer of output files."""

import io
import os
import stat

import pytest

from radpriors._io import (DataError, atomic_write_text, check_target,
                           split_cr, utf8_lines)
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


@pytest.fixture
def restore_umask():
    """Restore the process umask after the test."""
    saved = os.umask(0o022)
    yield
    os.umask(saved)


class TestAtomicWriteText:
    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, restore_umask,
                                          mask, mode):
        os.umask(mask)
        atomic_write_text(tmp_path / "atomic.txt", "x")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
        # The umask is read, and left as it was.
        assert os.umask(mask) == mask
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.iterdir()}
        assert modes == {"atomic.txt": mode, "plain.txt": mode}

    def test_unwritable_path_is_an_error_naming_it_as_given(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        messages = set()
        for _ in range(2):
            with pytest.raises(FileNotFoundError) as err:
                atomic_write_text("missing/l.jsonl", "x")
            messages.add(str(err.value))
        assert messages == {
            "[Errno 2] No such file or directory: 'missing/l.jsonl'"}
        assert err.value.filename == "missing/l.jsonl"
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_target_is_named_and_no_temp_file_is_left(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError) as err:
            atomic_write_text("d", "x")
        assert str(err.value) == "[Errno 21] Is a directory: 'd'"
        assert [path.name for path in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []


class TestCheckTarget:
    @pytest.mark.parametrize("path", [
        "d", "missing/x.json", "f/x.json", "f/x/y.json", "d/../f/x.json"])
    def test_refuses_as_the_write_would(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("", encoding="utf-8")
        with pytest.raises(OSError) as checked:
            check_target(path)
        with pytest.raises(OSError) as written:
            atomic_write_text(path, "x")
        assert (type(checked.value), str(checked.value)) == \
            (type(written.value), str(written.value))
        assert checked.value.filename == path

    @pytest.mark.parametrize("path", ["new.json", "f", "d/new.json"])
    def test_passes_a_writable_target_and_writes_nothing(
            self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("", encoding="utf-8")
        check_target(path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d", "f"]
        assert (tmp_path / "f").read_text(encoding="utf-8") == ""
