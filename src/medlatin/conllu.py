"""CoNLL-U parsing and serialization.

Single source of truth for the token data model used across the toolkit:
ten tab-separated columns, '#' comment lines, blank-line sentence
separation, UTF-8, LF line endings on output regardless of input.

Only plain single-word tokens are modelled.  Multiword-token ranges
("3-4") and empty nodes ("3.1") are rejected with a dedicated error, since
every downstream task is strictly one-tag-per-token and silently skipping
such lines would desynchronize gold/predicted alignment.  Callers that
need to ingest treebanks containing them can pass ``drop_unsupported=True``,
which drops those lines before parsing.  A sentence's '#' comment lines
are kept verbatim and never interpreted.

Dependency-related columns (XPOS, HEAD, DEPREL, DEPS) are carried opaquely
and re-emitted verbatim; they are never interpreted.

relabel is the one way a document's labels are rewritten: prediction and
lemma normalization both copy a document through it, one label per token
written through the task's row of TASKS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .errors import MedlatinError, read_text

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X", "_",
})

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")


class MalformedLine(MedlatinError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")


class NonConsecutiveIds(MedlatinError):
    def __init__(self, sent_index: int):
        self.sent_index = sent_index
        super().__init__(f"sentence {sent_index}: token ids are not consecutive from 1")


class UnsupportedToken(MedlatinError):
    def __init__(self, line_no: int, token_id: str):
        self.line_no = line_no
        self.token_id = token_id
        super().__init__(
            f"line {line_no}: unsupported token id {token_id!r} "
            "(multiword ranges and empty nodes are not modelled; "
            "pass drop_unsupported=True to discard such lines)"
        )


class InvalidUpos(MedlatinError):
    def __init__(self, line_no: int, upos: str):
        self.line_no = line_no
        self.upos = upos
        super().__init__(f"line {line_no}: invalid UPOS tag {upos!r}")


@dataclass(frozen=True)
class Token:
    """One token line.

    ufeats is the canonical form of the FEATS column: key=value pairs with
    keys unique and sorted ascending; the empty tuple serializes as "_".
    extra_cols carries XPOS, HEAD, DEPREL and DEPS verbatim, in that order.
    """

    id: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    ufeats: tuple[tuple[str, str], ...] = ()
    misc: str = "_"
    extra_cols: tuple[str, str, str, str] = ("_", "_", "_", "_")

    def feats_string(self) -> str:
        if not self.ufeats:
            return "_"
        return "|".join(f"{k}={v}" for k, v in self.ufeats)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class Document:
    sentences: tuple[Sentence, ...]
    source_name: str = field(default="<unnamed>", compare=False)

    def token_count(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)


def feats_from_string(raw: str, line_no: int) -> tuple[tuple[str, str], ...]:
    """Parse a FEATS column into canonical (sorted, unique-key) pairs."""
    if raw == "_":
        return ()
    pairs = []
    for item in raw.split("|"):
        if "=" not in item:
            raise MalformedLine(line_no, f"feature {item!r} is not Key=Value")
        key, value = item.split("=", 1)
        if not key or not value:
            raise MalformedLine(line_no, f"feature {item!r} has an empty key or value")
        pairs.append((key, value))
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise MalformedLine(line_no, f"duplicate feature key in {raw!r}")
    return tuple(sorted(pairs))


def _upos_label(label: str) -> str:
    if label not in UPOS_TAGS:
        raise ValueError(f"label {label!r} is not a UPOS tag")
    return label


@lru_cache(maxsize=4096)  # tagsets are closed, so a few hundred labels recur
def _feats_label(label: str) -> tuple[tuple[str, str], ...]:
    try:
        ufeats = feats_from_string(label, 0)
    except MalformedLine as exc:
        raise ValueError(f"label {label!r} is not a FEATS string: {exc.detail}") from None
    if ("|".join(map("=".join, ufeats)) or "_") != label or "\t" in label or "\n" in label:
        raise ValueError(f"label {label!r} is not a canonical FEATS string")
    return ufeats


class Task(NamedTuple):
    """A row of TASKS.  read(token) is the label a model predicts and
    evaluation compares; parse(label) is the value of the Token field named
    like the task, or ValueError for a label that field cannot hold; tagger
    tells whether the tagger (true) or the lemmatizer serves the task."""

    name: str
    read: Callable[[Token], str]
    parse: Callable[[str], object]
    tagger: bool

    def write(self, tok: Token, label: str) -> Token:
        return replace(tok, **{self.name: self.parse(label)})


# Lemmas are read lowercased, since gold corpora may capitalize proper nouns.
TASKS = {task.name: task for task in (
    Task("upos", lambda tok: tok.upos, _upos_label, tagger=True),
    Task("ufeats", Token.feats_string, _feats_label, tagger=True),
    Task("lemma", lambda tok: tok.lemma.lower(), str, tagger=False),
)}


def parse_conllu(text: str, source_name: str = "<string>",
                 drop_unsupported: bool = False) -> Document:
    """Parse CoNLL-U text into a Document.

    Canonical-form input (sorted feature keys, LF endings, one blank line
    after every sentence) round-trips byte-identically through serialize().
    Non-canonical but well-formed input is accepted and canonicalized.  One
    leading byte-order mark (U+FEFF) is dropped.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    sentences: list[Sentence] = []
    comments: list[str] = []
    tokens: list[Token] = []
    first_comment_line = 0
    feats_table: dict[str, tuple[tuple[str, str], ...]] = {}  # FEATS column -> ufeats

    def flush() -> None:
        nonlocal comments, tokens
        if not tokens:
            if comments:
                raise MalformedLine(first_comment_line, "comment lines not followed by a sentence")
            return
        sent_index = len(sentences)
        for pos, tok in enumerate(tokens):
            if tok.id != pos + 1:
                raise NonConsecutiveIds(sent_index)
        sentences.append(Sentence(tuple(tokens), tuple(comments)))
        comments = []
        tokens = []

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_no, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line == "":
            flush()
            continue
        if line.startswith("#"):
            if not tokens and not comments:
                first_comment_line = line_no
            comments.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise MalformedLine(line_no, f"expected 10 tab-separated fields, got {len(fields)}")
        if "" in fields:
            raise MalformedLine(line_no, "empty column (use '_' for absent values)")
        raw_id, form, lemma, upos, xpos, raw_feats, head, deprel, deps, misc = fields
        # isdecimal() is true exactly for a run of Unicode Nd digits, what \d+ matches.
        if not raw_id.isdecimal():
            if _RANGE_ID.match(raw_id) or _EMPTY_NODE_ID.match(raw_id):
                if drop_unsupported:
                    continue
                raise UnsupportedToken(line_no, raw_id)
            raise MalformedLine(line_no, f"token id {raw_id!r} is not a positive integer")
        if upos not in UPOS_TAGS:
            raise InvalidUpos(line_no, upos)
        ufeats = feats_table.get(raw_feats)
        if ufeats is None:
            ufeats = feats_table[raw_feats] = feats_from_string(raw_feats, line_no)
        tokens.append(Token(int(raw_id), form, lemma, upos, ufeats, misc,
                            (xpos, head, deprel, deps)))
    flush()
    return Document(tuple(sentences), source_name)


def read_conllu(path: str, drop_unsupported: bool = False) -> Document:
    """Read a UTF-8 CoNLL-U file and parse it; every error is a MedlatinError
    whose message starts with the path, and a decode error names its line."""
    text = read_text(path)
    try:
        return parse_conllu(text, source_name=path, drop_unsupported=drop_unsupported)
    except MedlatinError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def serialize(doc: Document) -> str:
    """Serialize a Document to CoNLL-U text (LF endings, one blank line per sentence)."""
    lines: list[str] = []
    for sentence in doc.sentences:
        lines.extend(sentence.comments)
        for tok in sentence.tokens:
            xpos, head, deprel, deps = tok.extra_cols
            lines.append("\t".join((
                str(tok.id), tok.form, tok.lemma, tok.upos, xpos,
                tok.feats_string(), head, deprel, deps, tok.misc,
            )))
        lines.append("")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def concat_documents(docs: list[Document], source_name: str) -> Document:
    """Concatenate documents' sentences in order."""
    return Document(tuple(s for d in docs for s in d.sentences), source_name)


def relabel(doc: Document, task: str, labels: Iterable[Iterable[str]]) -> Document:
    """Copy of doc with the task's label of every token replaced: labels
    holds one label sequence per sentence, written through TASKS[task].write.
    The copy keeps the document's name and each sentence's comments."""
    write = TASKS[task].write
    return Document(tuple(Sentence(tuple(map(write, s.tokens, sentence_labels)), s.comments)
                          for s, sentence_labels in zip(doc.sentences, labels)),
                    doc.source_name)
