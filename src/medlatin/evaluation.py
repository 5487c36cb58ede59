"""Per-field accuracy between aligned gold and predicted documents.

Alignment is a hard precondition, not a best effort: the two documents must
have identical sentence counts, token counts and forms position-wise, and
any divergence raises AlignmentMismatch instead of silently skipping tokens
(the classic evaluation bug).  Accuracy is plain exact-match percentage
rounded half-up to 2 decimals, of the labels conllu.TASKS reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .conllu import TASKS, Document
from .errors import MedlatinError
from .registry import half_up_2dp


class AlignmentMismatch(MedlatinError):
    def __init__(self, position: str, detail: str):
        self.position = position
        super().__init__(f"{position}: {detail}")


@dataclass(frozen=True)
class Mismatch:
    sent_index: int
    token_id: int
    field: str
    gold: str
    predicted: str


@dataclass(frozen=True)
class EvalReport:
    accuracy: dict[str, Decimal]
    token_count: int
    mismatches: tuple[Mismatch, ...]

    def matches(self, field: str) -> int:
        return self.token_count - sum(1 for m in self.mismatches if m.field == field)


def check_alignment(gold: Document, predicted: Document) -> None:
    if len(gold.sentences) != len(predicted.sentences):
        raise AlignmentMismatch(
            "document", f"{len(gold.sentences)} gold vs {len(predicted.sentences)} "
            "predicted sentences")
    for s_idx, (g_sent, p_sent) in enumerate(zip(gold.sentences, predicted.sentences)):
        if len(g_sent.tokens) != len(p_sent.tokens):
            raise AlignmentMismatch(
                f"sentence {s_idx}", f"{len(g_sent.tokens)} gold vs "
                f"{len(p_sent.tokens)} predicted tokens")
        for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
            if g_tok.form != p_tok.form:
                raise AlignmentMismatch(
                    f"sentence {s_idx}, token {g_tok.id}",
                    f"form {g_tok.form!r} vs {p_tok.form!r}")


def evaluate(gold: Document, predicted: Document,
             fields: tuple[str, ...] = tuple(TASKS)) -> EvalReport:
    """Exact-match accuracy per field (a TASKS name) over position-aligned documents."""
    readers = [(f, TASKS[f].read) for f in fields]
    check_alignment(gold, predicted)
    total = gold.token_count()
    matches = {f: 0 for f in fields}
    mismatches: list[Mismatch] = []
    for s_idx, (g_sent, p_sent) in enumerate(zip(gold.sentences, predicted.sentences)):
        for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
            for f, read in readers:
                g_val = read(g_tok)
                p_val = read(p_tok)
                if g_val == p_val:
                    matches[f] += 1
                else:
                    mismatches.append(Mismatch(s_idx, g_tok.id, f, g_val, p_val))
    accuracy = {f: half_up_2dp(100 * matches[f], total) for f in fields}
    return EvalReport(accuracy, total, tuple(mismatches))


def evaluate_by_genre(pairs: dict[str, tuple[Document, Document]],
                      fields: tuple[str, ...] = tuple(TASKS)) -> dict[str, EvalReport]:
    """Independent evaluate() per genre; no cross-genre pooling.

    Alignment errors are re-raised with the offending genre named.
    """
    reports = {}
    for genre, (gold, predicted) in pairs.items():
        try:
            reports[genre] = evaluate(gold, predicted, fields)
        except AlignmentMismatch as exc:
            exc.args = (f"genre {genre!r}: {exc}",)
            raise
    return reports
