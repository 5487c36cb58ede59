import json
import os
import stat
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin import errors
from medlatin.errors import (JSONItems, MedlatinError, json_entries, json_row, json_string,
                             write_file, write_model_file)


def json_dump_bytes(value) -> bytes:
    """The model-file bytes the json module writes, as the loaders expect them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reference.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh, ensure_ascii=False, indent=0, sort_keys=True)
            fh.write("\n")
        with open(path, "rb") as fh:
            return fh.read()


def writer_bytes(value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        write_model_file(path, value)
        assert os.listdir(tmp) == ["model.json"]
        with open(path, "rb") as fh:
            return fh.read()


# Quotes, backslashes, control characters, U+2028/9 and non-ASCII text.
SPECIAL = '"\\/\x00\x08\x1f\x7f\t\n\r\u2028\u2029\xe9\u20ac\U0001d504'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(blacklist_categories=("Cs",))),
               max_size=8)
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e-05, 1e300, -1e-300, 0.1, 1.5e16]),
                   st.floats(allow_nan=False, allow_infinity=False))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24)


def batched(items, brackets="[]", batch=1):
    rendered = JSONItems(items, brackets)
    rendered.BATCH = batch
    return rendered


def dumps(value):
    return json.dumps(value, ensure_ascii=False, indent=0, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(TEXT, JSON_VALUES, max_size=5), st.integers(0, 3))
def test_writer_matches_json_dump(payload, batch):
    """With batch > 0, every top-level list goes to the writer as JSONItems."""
    written = {key: batched(map(dumps, value), batch=batch)
               if batch and isinstance(value, list) else value
               for key, value in payload.items()}
    assert writer_bytes(written) == json_dump_bytes(payload)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 500), FLOATS), max_size=7),
       st.dictionaries(TEXT, st.integers(), max_size=7), st.integers(1, 3))
def test_row_formats_and_batches_match_json_dump(weight_rows, vocab, batch):
    keys = sorted(vocab)
    payload = {
        "weights": batched(map(json_row("%d", "%d", "%r").__mod__, weight_rows), batch=batch),
        "vocab": batched(json_entries(keys, map(str, map(vocab.__getitem__, keys))), "{}", batch),
        "n": len(weight_rows),
    }
    plain = {"weights": [list(row) for row in weight_rows], "vocab": vocab, "n": len(weight_rows)}
    assert writer_bytes(payload) == json_dump_bytes(plain)
    rows = batched(map(json_row("7", "%s", "%d").__mod__,
                       ((json_string(k), v) for k, v in sorted(vocab.items()))), batch=batch)
    assert "".join(rows.chunks()) == dumps([[7, k, v] for k, v in sorted(vocab.items())])


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_writer_rejects_non_finite_floats(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_model_file(str(tmp_path / "model.json"), {"w": [value]})
    assert os.listdir(tmp_path) == []


def test_writer_rejects_non_json_values(tmp_path):
    with pytest.raises(TypeError):
        write_model_file(str(tmp_path / "model.json"), {"w": {1, 2}})
    with pytest.raises(TypeError):
        write_model_file(str(tmp_path / "model.json"), {1: "key is not a string"})


def _fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["unencodable-text", "replace-fails"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "model.json"
    write_model_file(str(path), {"format": "old", "rows": [1, 2, 3]})
    before = path.read_bytes()
    if failure == "unencodable-text":
        # A lone surrogate cannot be encoded as UTF-8, so the write to the
        # temporary file fails after it was opened.
        with pytest.raises(UnicodeEncodeError):
            write_model_file(str(path), {"format": "new", "rows": ["\ud800"]})
    else:
        monkeypatch.setattr(errors.os, "replace", _fail_replace)
        with pytest.raises(MedlatinError, match=r"cannot write \(disk full\)$"):
            write_file(str(path), ["new content\n"])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_write_follows_symlink_and_keeps_mode(tmp_path):
    target, link = tmp_path / "model.json", tmp_path / "link.json"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    write_file(str(link), ["new\n"])
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.json", "model.json"]


def test_write_to_a_pipe_goes_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    write_file(str(pipe), ["a", "b\n"])
    reader.join(10)
    assert received == ["ab\n"]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.skipif(os.name != "posix", reason="only POSIX can tell whether a PID runs")
def test_write_removes_temp_files_whose_writer_has_ended(tmp_path):
    ended = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True).stdout.strip()
    kept = {
        f".model.json.{ended}.tmp": False,             # its writer has ended
        f".model.json.{os.getppid()}.tmp": True,       # its writer still runs
        f".other.json.{ended}.tmp": True,              # a temporary file of another name
        f".model.json.{ended}.x.tmp": True,            # not a name write_file makes
        ".model.json.tmp": True,
    }
    for name in kept:
        (tmp_path / name).write_text("x", encoding="utf-8")
    write_file(str(tmp_path / "model.json"), ["new\n"])
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == "new\n"
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["model.json"] + [name for name, stays in kept.items() if stays])
