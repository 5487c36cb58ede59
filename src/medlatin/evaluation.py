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
from operator import eq

from .conllu import TASKS, Document, Token
from .errors import MedlatinError
from .registry import half_up_2dp


class AlignmentMismatch(MedlatinError):
    def __init__(self, position: str, detail: str):
        self.position = position
        super().__init__(f"{position}: {detail}")


@dataclass(frozen=True)
class EvalReport:
    accuracy: dict[str, Decimal]
    token_count: int
    matches: dict[str, int]


def check_alignment(gold: Document, predicted: Document) -> tuple[list[Token], list[Token]]:
    """The one walk over an aligned pair: raise AlignmentMismatch at the first
    divergence, else return the gold and predicted tokens, flattened in order."""
    if len(gold.sentences) != len(predicted.sentences):
        raise AlignmentMismatch(
            "document", f"{len(gold.sentences)} gold vs {len(predicted.sentences)} "
            "predicted sentences")
    gold_tokens: list[Token] = []
    pred_tokens: list[Token] = []
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
        gold_tokens += g_sent.tokens
        pred_tokens += p_sent.tokens
    return gold_tokens, pred_tokens


def evaluate(gold: Document, predicted: Document,
             fields: tuple[str, ...] = tuple(TASKS)) -> EvalReport:
    """Exact-match accuracy per field (a TASKS name) over position-aligned documents."""
    readers = [(f, TASKS[f].read) for f in fields]
    gold_tokens, pred_tokens = check_alignment(gold, predicted)
    total = len(gold_tokens)
    matches = {f: sum(map(eq, map(read, gold_tokens), map(read, pred_tokens)))
               for f, read in readers}
    accuracy = {f: half_up_2dp(100 * matches[f], total) for f in fields}
    return EvalReport(accuracy, total, matches)


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
