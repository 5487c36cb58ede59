"""Shared exception base for the toolkit, and the model-file reader that
turns a malformed file into one of its errors.

Every domain error raised by a medlatin module derives from MedlatinError,
so the CLI can surface the error-case name uniformly (exit code 1) while
genuine bugs still escape as ordinary exceptions.
"""

import json


class MedlatinError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyCorpus(MedlatinError):
    """Raised when a trainer is given a corpus with no sentences to learn from."""


def read_model_file(path: str, model_format: str, schema: dict, build):
    """Read a JSON model file, check its top-level keys and build the model.

    schema maps each required key to its JSON type (str, list or dict).
    build(payload) converts the checked payload; a KeyError, TypeError or
    ValueError it raises on a malformed value becomes a MedlatinError that
    names the path, as does invalid JSON, a wrong format tag or a missing or
    mistyped top-level key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise MedlatinError(f"{path}: not a JSON file ({exc})") from exc
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
    except (TypeError, ValueError) as exc:
        raise MedlatinError(f"{path}: malformed model ({exc})") from exc
