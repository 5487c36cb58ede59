"""Shared exception base for the toolkit, the text-file reader, and the
model-file reader and writer.

Every domain error raised by a medlatin module derives from MedlatinError,
so the CLI can surface the error-case name uniformly (exit code 1) while
genuine bugs still escape as ordinary exceptions.

Model files are the text json.dump(payload, fh, ensure_ascii=False,
indent=0, sort_keys=True) writes, plus a final newline.  The writer here
lays out the large arrays itself: json's encoder drops to pure Python, one
call and one write per value, as soon as it is asked to indent.  A model
module renders each item of a large array or object (at indent=0, a row is
"[\n" + its values joined by ",\n" + "\n]") with one f-string, from
json_string for a string and repr for a float, and hands the items to the
writer as JSONItems.
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
    Infinity included), JSON nested too deeply to parse, a string holding
    a lone surrogate (a JSON escape such as \\udcff, which UTF-8 cannot
    encode), a wrong format tag or a missing or mistyped top-level key.
    """
    text = read_text(path)
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise MedlatinError(f"{path}: not a JSON file ({exc})") from exc
    except RecursionError:
        raise MedlatinError(f"{path}: not a JSON file (nested too deeply)") from None
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


_STAGE_VALUES = {"datasets": (list, "a list of strings"), "epochs": (int, "an int"),
                 "was_continued": (bool, "a bool")}


def read_provenance(stages: list, keys: tuple[str, ...]) -> tuple[dict, ...]:
    """A model file's provenance: one {key: value} dict per training stage.

    Each stage must hold every key in keys, where datasets is a list of
    strings, epochs an int that is not a bool, and was_continued a bool;
    its other keys are dropped.  A stage that breaks this raises KeyError,
    TypeError or ValueError, which read_model_file reports naming the path.
    """
    checked = []
    for i, stage in enumerate(stages):
        kept = {key: stage[key] for key in keys}
        for key, value in kept.items():
            kind, text = _STAGE_VALUES[key]
            if value.__class__ is not kind or (
                    kind is list and not all(d.__class__ is str for d in value)):
                raise ValueError(f"provenance stage {i}: {key} must be {text}, not {value!r}")
        checked.append(kept)
    return tuple(checked)


class JSONItems:
    """A JSON array, or with brackets="{}" an object, given as an iterable
    of its items' JSON texts ('"key": value' for an object).  The items are
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
    file is removed and the old content stays.  A temporary file that an
    earlier write of path left in a process that has ended, as a kill
    leaves one, is removed first.

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
    _remove_stale_temp_files(directory, name)
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


def _remove_stale_temp_files(directory: str, name: str) -> None:
    """Remove the temporary files, .NAME.PID.tmp, that writes of name left
    in directory in a process that has ended, such as one killed mid-write.
    One whose PID runs, or cannot be checked, may be a write in flight and
    stays.  An OSError stops the removal and is not raised: the write does
    not depend on it."""
    prefix = f".{name}."
    try:
        for entry in os.listdir(directory):
            pid = entry[len(prefix):-len(".tmp")]
            if (entry.startswith(prefix) and entry.endswith(".tmp") and pid.isascii()
                    and pid.isdigit() and _ended(int(pid))):
                os.unlink(os.path.join(directory, entry))
    except OSError:
        pass


def _ended(pid: int) -> bool:
    """Whether no process with this PID runs.  Only on POSIX does
    os.kill(pid, 0) test for a process without signalling it, so elsewhere
    every PID counts as running."""
    if os.name != "posix":
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # another user's process, or no PID at all
        pass
    return False


def write_model_file(path: str, payload: dict) -> None:
    """Write a model payload in the layout read_model_file reads, one
    top-level entry at a time and a JSONItems value a batch at a time.

    A value that is not JSONItems is small and goes through json.dumps: at
    indent=0 a nested value's text does not depend on its depth.  In such a
    value a float that is not finite raises ValueError, as NaN and Infinity
    are not JSON; a JSONItems text is written as it is given, so its
    renderer must reject one itself, as tagger.save_model does.
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
