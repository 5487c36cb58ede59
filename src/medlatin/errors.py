"""Shared exception base for the toolkit, the text-file reader, and the
model-file reader and writer.

Every domain error raised by a medlatin module derives from MedlatinError,
so the CLI can surface the error-case name uniformly (exit code 1) while
genuine bugs still escape as ordinary exceptions.

Model files are the text json.dump(payload, fh, ensure_ascii=False,
indent=0, sort_keys=True) writes, plus a final newline.  The writer here
lays out the large arrays itself: json's encoder drops to pure Python, one
call and one write per value, as soon as it is asked to indent.  json_row,
json_array, json_entries and JSONItems hold that layout; a model's large
arrays are rendered a row at a time from a json_row format string and
handed to the writer as JSONItems.
"""

import json
import os
import re
import stat
from itertools import islice
from json.encoder import encode_basestring as json_string


class MedlatinError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyCorpus(MedlatinError):
    """Raised when a trainer is given a corpus with no sentences to learn from."""


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def read_text(path: str) -> str:
    """Read a UTF-8 text file with universal newlines.  An unreadable file
    or a byte that is not UTF-8 raises a MedlatinError whose message starts
    with the path; a decode error names its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MedlatinError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    return decode_text(data, path)


def decode_text(data: bytes, name: str) -> str:
    """Decode UTF-8 bytes with universal newlines; a byte that is not UTF-8
    raises a MedlatinError that starts with name and names the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MedlatinError(f"{name}: line {line_no}: not UTF-8 ({exc.reason})") from None
    if "\r" in text:  # universal newlines, as a text-mode open() reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_model_file(path: str, model_format: str, schema: dict, build):
    """Read a JSON model file, check its top-level keys and build the model.

    schema maps each required key to its JSON type (str, list or dict).
    build(payload) converts the checked payload; a KeyError, TypeError,
    ValueError or OverflowError it raises on a malformed value becomes a
    MedlatinError that names the path, as does invalid JSON (NaN and
    Infinity included), a string holding a lone surrogate (a JSON escape
    such as \\udcff, which UTF-8 cannot encode), a wrong format tag or a
    missing or mistyped top-level key.
    """
    text = read_text(path)
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise MedlatinError(f"{path}: not a JSON file ({exc})") from exc
    # Only a \u escape can give a string a lone surrogate, which the model
    # could never write back or emit as UTF-8; "\\" in text is the fast test.
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MedlatinError(f"{path}: malformed model (a string holds the lone "
                                f"surrogate {exc.object[exc.start]!r})") from None
    if not isinstance(payload, dict) or payload.get("format") != model_format:
        raise MedlatinError(f"{path}: not a {model_format} model file")
    for key, kind in schema.items():
        if key not in payload:
            raise MedlatinError(f"{path}: missing key {key!r}")
        if not isinstance(payload[key], kind):
            raise MedlatinError(f"{path}: key {key!r} must be a {kind.__name__}, "
                                f"not {type(payload[key]).__name__}")
    try:
        return build(payload)
    except KeyError as exc:
        raise MedlatinError(f"{path}: malformed model, missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise MedlatinError(f"{path}: malformed model ({exc})") from exc


def json_row(*cells: str) -> str:
    """A %-format string for a JSON array of len(cells) values.

    Each cell is a conversion: %d for an int, %r for a finite float (json
    writes float.__repr__ too), %s for a string already passed through
    json_string or for JSON text.  A cell may also be literal JSON text
    without a '%' in it, such as str(an int).
    """
    return "[\n" + ",\n".join(cells) + "\n]"


def json_array(items) -> str:
    """JSON text of an array whose items are given as JSON texts."""
    body = ",\n".join(items)
    return "[\n" + body + "\n]" if body else "[]"


def json_entries(keys, values):
    """The '"key": value' texts of an object's entries, from its str keys
    in sorted order and the JSON texts of their values."""
    return map("%s: %s".__mod__, zip(map(json_string, keys), values))


class JSONItems:
    """A JSON array, or with brackets="{}" an object, given as an iterable
    of its items' JSON texts (json_entries for an object).  The items are
    rendered as they are consumed: write_model_file writes them a batch at
    a time, so a large array is never held as one text."""

    BATCH = 1024

    def __init__(self, items, brackets: str = "[]"):
        self.items = items
        self.brackets = brackets

    def chunks(self):
        items = iter(self.items)
        batch = ",\n".join(islice(items, self.BATCH))
        if not batch:
            yield self.brackets
            return
        yield self.brackets[0] + "\n" + batch
        while batch := ",\n".join(islice(items, self.BATCH)):
            yield ",\n" + batch
        yield "\n" + self.brackets[1]


def write_file(path: str, chunks) -> None:
    """Write the text chunks to path as UTF-8 through a temporary file in
    the same directory and os.replace, so the path holds either its old
    content or all of the new, never a part.  On an error the temporary
    file is removed and the old content stays.

    A symlink is followed, so its target is replaced and the link stays,
    and an existing file keeps its mode.  A path that exists but is not a
    regular file, such as /dev/stdout or a pipe, is written in place.  An
    OSError becomes a MedlatinError that starts with the path as given.
    """
    try:
        _write_file(os.path.realpath(path), chunks)
    except OSError as exc:
        raise MedlatinError(f"{path}: cannot write ({exc.strerror or exc})") from exc


def _write_file(path: str, chunks) -> None:
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_model_file(path: str, payload: dict) -> None:
    """Write a model payload in the layout read_model_file reads, one
    top-level entry at a time and a JSONItems value a batch at a time.

    A value that is not JSONItems is small and goes through json.dumps: at
    indent=0 a nested value's text does not depend on its depth.  A float
    that is not finite raises ValueError, as NaN and Infinity are not JSON.
    """
    def chunks():
        keys = sorted(payload)
        for key in keys:
            yield ("{\n" if key == keys[0] else ",\n") + json_string(key) + ": "
            value = payload[key]
            if isinstance(value, JSONItems):
                yield from value.chunks()
            else:
                yield json.dumps(value, ensure_ascii=False, indent=0, sort_keys=True,
                                 allow_nan=False)
        yield "\n}\n" if keys else "{}\n"
    write_file(path, chunks())
