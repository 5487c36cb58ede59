"""Character-level error analysis for lemmatization and POS predictions.

Gold and predicted lemmas are aligned at minimum edit distance (the
Wagner-Fischer table).  The traceback reads each maximal run of edits
straight off as one confusion pattern ("u:v", "a:us", "h:"), by the gold
and predicted indices where the run starts and ends, which is what makes
multi-character patterns possible at all.

Only the middle where the two strings differ gets table cells.  The
traceback matches the common suffix before anything else, so the suffix
needs none.  Within a common prefix of length k one string is a prefix of
the other, so every cell (i, j) with i <= k or j <= k holds |i - j|; the
traceback reads those cells from that closed form and stops once it stands
on the diagonal inside the prefix, where only matches remain.

Positions are anchored on the gold string:

    initial  the run touches gold index 0 (or inserts before it);
             a whole-word run counts as initial
    final    the run touches the last gold index (or inserts after it)
    middle   everything else

Alignment tie-breaking is deterministic (match > sub > del > ins during
traceback): different minimal alignments would yield different patterns,
and the mined table must be reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .conllu import TASKS, Document
from .evaluation import EvalReport, check_alignment

POSITION_ORDER = {"initial": 0, "middle": 1, "final": 2}


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


def extract_patterns(gold: str, pred: str) -> list[tuple[str, str, str]]:
    """Each maximal run of edits in a minimum-edit-distance alignment, as a
    (gold_sub, pred_sub, position) triple; equal strings give none.

    A run spans gold[gi:ge] (gi == ge for a pure insertion): it is initial
    if gi is 0, else final if ge is len(gold), else middle.
    """
    m, n = len(gold), len(pred)
    # The traceback matches the common suffix first, so it needs no cells.
    g_end, p_end = m, n
    while g_end and p_end and gold[g_end - 1] == pred[p_end - 1]:
        g_end, p_end = g_end - 1, p_end - 1
    # Within the common prefix gold[:k] one string is a prefix of the
    # other, so a cell (i, j) with i <= k or j <= k holds |i - j|.
    k = 0
    while k < g_end and k < p_end and gold[k] == pred[k]:
        k += 1
    # dp[i - k][j - k] is the cell (i, j) for k <= i <= g_end, k <= j <= p_end.
    pred_middle = pred[k:p_end]
    dp = [list(range(len(pred_middle) + 1))]
    for i, g_char in enumerate(gold[k:g_end], start=1):
        prev_row, row = dp[-1], [i]
        for j, p_char in enumerate(pred_middle, start=1):
            if g_char == p_char:
                row.append(prev_row[j - 1])
            else:
                row.append(1 + min(prev_row[j - 1], prev_row[j], row[j - 1]))
        dp.append(row)
    patterns: list[tuple[str, str, str]] = []
    i, j = g_end, p_end
    run_end = None  # (ge, pe) of the run of edits the traceback is inside
    while True:
        # equal characters always fill the cell from its diagonal, so a
        # match needs no check of the table
        matched = i > 0 and j > 0 and gold[i - 1] == pred[j - 1]
        # on the diagonal inside the prefix only matches remain
        done = i == j <= k
        if run_end is not None and (matched or done):
            ge, pe = run_end
            position = "initial" if i == 0 else "final" if ge == m else "middle"
            patterns.append((gold[i:ge], pred[j:pe], position))
            run_end = None
        if done:
            break
        if not matched and run_end is None:
            run_end = (i, j)
        if matched:
            i, j = i - 1, j - 1
        elif i <= k or j <= k:
            # |i - j| holds on a diagonal, so no substitution applies: a
            # deletion lowers it by one when i > j, an insertion when i < j
            if i > j:
                i -= 1
            else:
                j -= 1
        elif dp[i - k][j - k] == dp[i - k - 1][j - k - 1] + 1:
            i, j = i - 1, j - 1
        elif dp[i - k][j - k] == dp[i - k - 1][j - k] + 1:
            i -= 1
        else:
            j -= 1
    patterns.reverse()
    return patterns


def mine_confusions(errors: list[tuple[str, str]]) -> list[ConfusionPattern]:
    """Aggregate per-pair patterns into counted confusion patterns.

    Each distinct lowercased pair is aligned once and its patterns count
    as often as the pair occurs; pairs equal after lowercasing yield none.
    Output is grouped by position (initial, middle, final) with counts
    descending inside each group, ties broken lexicographically: the layout
    of a positional confusion table.
    """
    pairs = Counter((gold.lower(), pred.lower()) for gold, pred in errors)
    counts: Counter[tuple[str, str, str]] = Counter()
    for (gold, pred), pair_count in pairs.items():
        for key in extract_patterns(gold, pred):
            counts[key] += pair_count
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
