"""Character-level error analysis for lemmatization and POS predictions.

Gold and predicted lemmas are aligned at minimum edit distance; maximal
contiguous runs of non-matching operations collapse into one confusion
pattern each ("u:v", "a:us", "h:"), which is what makes multi-character
patterns possible at all.  Positions are anchored on the gold string:

    initial  the run touches gold index 0 (or inserts before it);
             a whole-word run counts as initial
    final    the run touches the last gold index (or inserts after it)
    middle   everything else

Alignment tie-breaking is deterministic (match > sub > del > ins during
traceback): different minimal alignments would yield different patterns,
and the mined table must be reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .conllu import TASKS, Document
from .errors import MedlatinError
from .evaluation import EvalReport, check_alignment

MATCH, SUB, DEL, INS = "match", "sub", "del", "ins"

POSITION_ORDER = {"initial": 0, "middle": 1, "final": 2}


class IdenticalStrings(MedlatinError):
    pass


@dataclass(frozen=True)
class AlignmentOp:
    op: str
    gold: str = ""
    pred: str = ""


@dataclass(frozen=True)
class ConfusionPattern:
    gold_sub: str
    pred_sub: str
    position: str
    count: int

    def label(self) -> str:
        return f"{self.gold_sub}:{self.pred_sub}"


@dataclass(frozen=True)
class GenreErrorDistribution:
    counts: dict[str, int]
    shares: dict[str, float] | None  # None when there are no errors at all

    def total(self) -> int:
        return sum(self.counts.values())


def align_chars(gold: str, pred: str) -> list[AlignmentOp]:
    """Minimum-edit-distance alignment with deterministic traceback."""
    m, n = len(gold), len(pred)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dp[i][0] = i
    for j in range(1, n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        row, prev_row = dp[i], dp[i - 1]
        g_char = gold[i - 1]
        for j in range(1, n + 1):
            if g_char == pred[j - 1]:
                row[j] = prev_row[j - 1]
            else:
                row[j] = 1 + min(prev_row[j - 1], prev_row[j], row[j - 1])
    ops: list[AlignmentOp] = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and gold[i - 1] == pred[j - 1] and dp[i][j] == dp[i - 1][j - 1]:
            ops.append(AlignmentOp(MATCH, gold[i - 1], pred[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            ops.append(AlignmentOp(SUB, gold[i - 1], pred[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            ops.append(AlignmentOp(DEL, gold[i - 1]))
            i = i - 1
        else:
            ops.append(AlignmentOp(INS, "", pred[j - 1]))
            j = j - 1
    ops.reverse()
    return ops


def alignment_cost(ops: list[AlignmentOp]) -> int:
    return sum(1 for op in ops if op.op != MATCH)


def extract_patterns(gold: str, pred: str) -> list[tuple[str, str, str]]:
    """Collapse each maximal run of non-match ops into one (gold_sub,
    pred_sub, position) triple.

    A run spans gold[start:end] (start == end for a pure insertion): it is
    initial if start is 0, else final if end is len(gold), else middle.
    """
    if gold == pred:
        raise IdenticalStrings(f"{gold!r} equals its prediction")
    patterns: list[tuple[str, str, str]] = []
    start = 0  # gold index where the next run of ops starts
    for is_match, run in groupby(align_chars(gold, pred), key=lambda op: op.op == MATCH):
        run = list(run)
        if is_match:
            start += len(run)
            continue
        run_gold = "".join([op.gold for op in run])
        end = start + len(run_gold)
        position = "initial" if start == 0 else "final" if end == len(gold) else "middle"
        patterns.append((run_gold, "".join([op.pred for op in run]), position))
        start = end
    return patterns


def mine_confusions(errors: list[tuple[str, str]]) -> list[ConfusionPattern]:
    """Aggregate per-pair patterns into counted confusion patterns.

    Output is grouped by position (initial, middle, final) with counts
    descending inside each group, ties broken lexicographically: the layout
    of a positional confusion table.  Pairs that are identical after
    lowercasing are skipped (they are not errors).
    """
    counts: dict[tuple[str, str, str], int] = {}
    for gold, pred in errors:
        gold, pred = gold.lower(), pred.lower()
        if gold == pred:
            continue
        for key in extract_patterns(gold, pred):
            counts[key] = counts.get(key, 0) + 1
    patterns = [ConfusionPattern(g, p, pos, c) for (g, p, pos), c in counts.items()]
    patterns.sort(key=lambda cp: (POSITION_ORDER[cp.position], -cp.count,
                                  cp.gold_sub, cp.pred_sub))
    return patterns


def lemma_error_pairs(gold: Document, predicted: Document,
                      include_sym: bool = False) -> list[tuple[str, str]]:
    """Collect (gold lemma, predicted lemma) disagreements from aligned documents.

    Tokens whose gold UPOS is SYM are excluded by default: their lemma
    handling is a fixed annotation policy, and counting those errors drowns
    out the orthographic patterns the mining is after.
    """
    read = TASKS["lemma"].read
    pairs = []
    for g_tok, p_tok in zip(*check_alignment(gold, predicted)):
        if g_tok.upos == "SYM" and not include_sym:
            continue
        g_lemma = read(g_tok)
        p_lemma = read(p_tok)
        if g_lemma != p_lemma:
            pairs.append((g_lemma, p_lemma))
    return pairs


def pos_confusions(gold: Document, predicted: Document) -> dict[tuple[str, str], int]:
    """Off-diagonal (gold UPOS, predicted UPOS) counts over aligned documents."""
    matrix: dict[tuple[str, str], int] = {}
    for g_tok, p_tok in zip(*check_alignment(gold, predicted)):
        if g_tok.upos != p_tok.upos:
            key = (g_tok.upos, p_tok.upos)
            matrix[key] = matrix.get(key, 0) + 1
    return matrix


def genre_distribution(reports: dict[str, EvalReport], field: str) -> GenreErrorDistribution:
    """Error counts per genre for one field, with each genre's share of the total."""
    counts = {genre: report.token_count - report.matches[field]
              for genre, report in reports.items()}
    total = sum(counts.values())
    if total == 0:
        return GenreErrorDistribution(counts, None)
    shares = {genre: count / total for genre, count in counts.items()}
    return GenreErrorDistribution(counts, shares)
