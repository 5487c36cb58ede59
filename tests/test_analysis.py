import random
from dataclasses import dataclass
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin.analysis import (POSITION_ORDER, ConfusionPattern, extract_patterns,
                               genre_distribution, lemma_error_pairs,
                               mine_confusions, pos_confusions)
from medlatin.evaluation import evaluate
from conftest import alignment_cost, simple_doc


# The op-list alignment and the groupby run collapsing that extract_patterns
# replaced, kept as the reference it is tested against.

MATCH, SUB, DEL, INS = "match", "sub", "del", "ins"


class IdenticalStrings(Exception):
    pass


@dataclass(frozen=True)
class AlignmentOp:
    op: str
    gold: str = ""
    pred: str = ""


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


def reference_extract_patterns(gold: str, pred: str) -> list[tuple[str, str, str]]:
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


def reference_mine_confusions(errors: list[tuple[str, str]]) -> list[ConfusionPattern]:
    """The per-copy mining loop mine_confusions replaced."""
    counts: dict[tuple[str, str, str], int] = {}
    for gold, pred in errors:
        gold, pred = gold.lower(), pred.lower()
        if gold == pred:
            continue
        for key in reference_extract_patterns(gold, pred):
            counts[key] = counts.get(key, 0) + 1
    patterns = [ConfusionPattern(g, p, pos, c) for (g, p, pos), c in counts.items()]
    patterns.sort(key=lambda cp: (POSITION_ORDER[cp.position], -cp.count,
                                  cp.gold_sub, cp.pred_sub))
    return patterns


def test_align_identical():
    assert extract_patterns("abc", "abc") == []
    assert extract_patterns("", "") == []


def _levenshtein(a: str, b: str) -> int:
    """Independent two-row DP, no shared code with extract_patterns."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[len(b)]


@settings(max_examples=800, deadline=None)
@given(a=st.text("abcde", max_size=12), b=st.text("abcde", max_size=12))
def test_alignment_cost_matches_levenshtein_oracle(a, b):
    assert alignment_cost(a, b) == _levenshtein(a, b)


def test_extract_patterns_initial_sub():
    assert extract_patterns("uideo", "video") == [("u", "v", "initial")]
    assert extract_patterns("kinga", "cinga") == [("k", "c", "initial")]


def test_extract_patterns_middle_sub():
    assert extract_patterns("gratia", "gracia") == [("t", "c", "middle")]


def test_extract_patterns_run_collapsing_tomco():
    assert extract_patterns("tomco", "thomcus") == [("", "h", "middle"), ("o", "us", "final")]


def test_extract_patterns_final_insertion():
    assert extract_patterns("porta", "portam") == [("", "m", "final")]


def test_extract_patterns_initial_insertion():
    assert extract_patterns("ungaria", "hungaria") == [("", "h", "initial")]


def test_extract_patterns_final_deletion():
    assert extract_patterns("portam", "porta") == [("m", "", "final")]


def test_extract_patterns_whole_word_counts_as_initial():
    assert extract_patterns("ab", "xy") == [("ab", "xy", "initial")]


def test_extract_patterns_positions_partition():
    rng = random.Random(77)
    for _ in range(300):
        g = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        p = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        if g == p:
            continue
        for _gold_sub, _pred_sub, position in extract_patterns(g, p):
            assert position in ("initial", "middle", "final")


def old_extract_patterns(gold, pred):
    """The closure state machine extract_patterns replaced, kept as the
    reference it is tested against."""
    if gold == pred:
        raise IdenticalStrings(f"{gold!r} equals its prediction")
    ops = align_chars(gold, pred)
    patterns = []
    gi = 0  # index of the next gold character
    run_gold = []
    run_pred = []
    run_start = run_end = 0  # gold index span covered by the current run
    run_open = False

    def close_run():
        nonlocal run_open, run_gold, run_pred
        if not run_open:
            return
        if run_gold:
            if run_start == 0:
                position = "initial"
            elif run_end == len(gold):
                position = "final"
            else:
                position = "middle"
        else:
            # pure insertion: anchored at the gap before gold index run_start
            if run_start == 0:
                position = "initial"
            elif run_start == len(gold):
                position = "final"
            else:
                position = "middle"
        patterns.append((f"{''.join(run_gold)}:{''.join(run_pred)}", position))
        run_open = False
        run_gold = []
        run_pred = []

    for op in ops:
        if op.op == MATCH:
            close_run()
            gi += 1
            continue
        if not run_open:
            run_open = True
            run_start = gi
            run_end = gi
        if op.op in (SUB, DEL):
            run_gold.append(op.gold)
            gi += 1
            run_end = gi
        if op.op in (SUB, INS):
            run_pred.append(op.pred)
    close_run()
    return patterns


@settings(max_examples=2000, deadline=None)
@given(st.text("abuv:", max_size=7), st.text("abuv:", max_size=7))
def test_extract_patterns_matches_old_state_machine(gold, pred):
    joined = [(f"{g}:{p}", position) for g, p, position in extract_patterns(gold, pred)]
    assert joined == ([] if gold == pred else old_extract_patterns(gold, pred))


@settings(max_examples=2500, deadline=None)
@given(st.text("abuv:", max_size=8), st.text("abuv:", max_size=8), st.booleans())
def test_extract_patterns_matches_groupby_reference(gold, pred, equal):
    if equal:
        pred = gold
    if gold == pred:
        assert extract_patterns(gold, pred) == []
    else:
        assert extract_patterns(gold, pred) == reference_extract_patterns(gold, pred)


# extract_patterns as it was before it left out the common prefix and
# suffix: the whole Wagner-Fischer table and a traceback over all of it.
def full_table_extract_patterns(gold: str, pred: str) -> list[tuple[str, str, str]]:
    """Each maximal run of edits in a minimum-edit-distance alignment, as a
    (gold_sub, pred_sub, position) triple; equal strings give none.

    A run spans gold[gi:ge] (gi == ge for a pure insertion): it is initial
    if gi is 0, else final if ge is len(gold), else middle.
    """
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
    patterns: list[tuple[str, str, str]] = []
    i, j = m, n
    run_end = None  # (ge, pe) of the run of edits the traceback is inside
    while True:
        # equal characters always fill the cell from its diagonal, so a
        # match needs no check of the table
        matched = i > 0 and j > 0 and gold[i - 1] == pred[j - 1]
        if run_end is not None and (matched or i == j == 0):
            ge, pe = run_end
            position = "initial" if i == 0 else "final" if ge == m else "middle"
            patterns.append((gold[i:ge], pred[j:pe], position))
            run_end = None
        if i == j == 0:
            break
        if not matched and run_end is None:
            run_end = (i, j)
        if matched or (i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1):
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            i -= 1
        else:
            j -= 1
    patterns.reverse()
    return patterns


@pytest.mark.parametrize("gold, pred", [
    ("ab", "abb"), ("abb", "ab"), ("aaaa", "aa"), ("aa", "aaaa"), ("", "ab"), ("ab", ""),
    ("", ""), ("abc", "abc"), ("abab", "ab"), ("ba", "bab"), ("uideo", "video"),
])
def test_extract_patterns_at_the_prefix_boundary_matches_full_table(gold, pred):
    assert extract_patterns(gold, pred) == full_table_extract_patterns(gold, pred)


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(st.text(alphabet, max_size=9), st.text(alphabet, max_size=9))))
def test_extract_patterns_matches_full_table(pair):
    gold, pred = pair
    assert extract_patterns(gold, pred) == full_table_extract_patterns(gold, pred)


_WORD = st.text("abuvAUV:", max_size=6)


@st.composite
def _error_lists(draw):
    """Lists that repeat pairs, vary their case and hold equal pairs."""
    pool = draw(st.lists(st.tuples(_WORD, _WORD), min_size=1, max_size=6))
    pool += [(gold, gold) for gold, _ in pool] + [(gold.upper(), pred.swapcase())
                                                   for gold, pred in pool]
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=500, deadline=None)
@given(_error_lists())
def test_mine_confusions_matches_per_copy_reference(errors):
    assert mine_confusions(errors) == reference_mine_confusions(errors)


def test_patterns_keep_a_colon_on_either_side():
    # A PUNCT lemma such as ":" must not be split where a pattern label
    # would put its separator.
    assert extract_patterns(":", ".") == [(":", ".", "initial")]
    assert extract_patterns("a:b", "a;b") == [(":", ";", "middle")]
    assert mine_confusions([(":", "."), ("a:b", "a;b"), ("a:b", "a;b")]) == [
        ConfusionPattern(":", ".", "initial", 1), ConfusionPattern(":", ";", "middle", 2)]


def test_extract_patterns_identical_strings_error():
    # Equal strings are no error: they hold no run of edits, so no patterns.
    assert extract_patterns("idem", "idem") == []
    assert mine_confusions([("idem", "idem"), ("Idem", "idem")]) == []


def test_mine_confusions_aggregates_identical_pairs():
    mined = mine_confusions([("uideo", "video")] * 3)
    assert [(c.label(), c.position, c.count) for c in mined] == [("u:v", "initial", 3)]


def test_mine_confusions_empty():
    assert mine_confusions([]) == []


def test_mine_confusions_mixed_fixture():
    errors = [("uideo", "video")] * 5 + [("gratia", "gracia")] * 2
    mined = mine_confusions(errors)
    assert [(c.label(), c.position, c.count) for c in mined] == [
        ("u:v", "initial", 5), ("t:c", "middle", 2)]


def test_mine_confusions_total_run_count_preserved():
    errors = [("tomco", "thomcus"), ("uideo", "video")]
    mined = mine_confusions(errors)
    runs = sum(len(extract_patterns(g, p)) for g, p in errors)
    assert sum(c.count for c in mined) == runs
    assert all(c.count >= 1 for c in mined)


def test_pos_confusions_counts_off_diagonal():
    gold = simple_doc([[("a", "a", "NOUN"), ("b", "b", "NOUN"),
                        ("c", "c", "NOUN"), ("d", "d", "NOUN")]])
    pred = simple_doc([[("a", "a", "ADJ"), ("b", "b", "ADJ"),
                        ("c", "c", "ADJ"), ("d", "d", "ADJ")]])
    assert pos_confusions(gold, pred) == {("NOUN", "ADJ"): 4}


def test_pos_confusions_identical_documents():
    d = simple_doc([[("a", "a", "NOUN")]])
    assert pos_confusions(d, d) == {}


def test_pos_confusions_share_reproduction():
    # 47 of 100 noun errors go to ADJ, the rest to VERB
    rows = []
    for i in range(100):
        rows.append([(f"w{i}", f"w{i}", "NOUN")])
    gold = simple_doc(rows)
    pred_rows = []
    for i in range(100):
        wrong = "ADJ" if i < 47 else "VERB"
        pred_rows.append([(f"w{i}", f"w{i}", wrong)])
    pred = simple_doc(pred_rows)
    matrix = pos_confusions(gold, pred)
    assert matrix[("NOUN", "ADJ")] == 47
    assert matrix[("NOUN", "VERB")] == 53


def test_pos_confusions_total_equals_evaluate_mismatches():
    rng = random.Random(3)
    rows_g, rows_p = [], []
    for i in range(200):
        form = f"w{i}"
        rows_g.append([(form, form, rng.choice(["NOUN", "VERB", "ADJ"]))])
        rows_p.append([(form, form, rng.choice(["NOUN", "VERB", "ADJ"]))])
    gold, pred = simple_doc(rows_g), simple_doc(rows_p)
    matrix = pos_confusions(gold, pred)
    report = evaluate(gold, pred, ("upos",))
    assert sum(matrix.values()) == report.token_count - report.matches["upos"]


def test_genre_distribution_shares():
    gold1 = simple_doc([[(f"w{i}", "right", "NOUN") for i in range(40)]])
    pred1_rows = [[(f"w{i}", "right" if i >= 10 else "wrong", "NOUN") for i in range(40)]]
    gold2 = simple_doc([[(f"v{i}", "right", "NOUN") for i in range(40)]])
    pred2_rows = [[(f"v{i}", "right" if i >= 30 else "wrong", "NOUN") for i in range(40)]]
    reports = {
        "g1": evaluate(gold1, simple_doc(pred1_rows), ("lemma",)),
        "g2": evaluate(gold2, simple_doc(pred2_rows), ("lemma",)),
    }
    dist = genre_distribution(reports, "lemma")
    assert dist.counts == {"g1": 10, "g2": 30}
    assert dist.shares == {"g1": 0.25, "g2": 0.75}
    assert abs(sum(dist.shares.values()) - 1.0) < 1e-9


def test_genre_distribution_all_perfect_flagged_undefined():
    d = simple_doc([[("a", "a", "NOUN")]])
    reports = {"g1": evaluate(d, d, ("lemma",))}
    dist = genre_distribution(reports, "lemma")
    assert dist.counts == {"g1": 0}
    assert dist.shares is None


def _science_sym_fixture():
    """Five genres; Science concentrates SYM lemma errors worth >10% of the total."""
    genres = {}
    for name, n_err in (("Annals", 5), ("Biography", 6), ("Normative", 4),
                        ("Proceedings", 7)):
        gold_rows = [[(f"{name}{i}", "gold", "NOUN") for i in range(20)]]
        pred_rows = [[(f"{name}{i}", "gold" if i >= n_err else "bad", "NOUN")
                      for i in range(20)]]
        genres[name] = (simple_doc(gold_rows), simple_doc(pred_rows))
    # Science: 6 SYM tokens mislabelled with content lemmas + 2 ordinary errors
    gold_rows = [[("AB", "_", "SYM"), ("CD", "_", "SYM"), ("EF", "_", "SYM"),
                  ("GH", "_", "SYM"), ("IJ", "_", "SYM"), ("KL", "_", "SYM"),
                  ("linea", "linea", "NOUN"), ("angulus", "angulus", "NOUN")]]
    pred_rows = [[("AB", "ab", "SYM"), ("CD", "cd", "SYM"), ("EF", "ef", "SYM"),
                  ("GH", "gh", "SYM"), ("IJ", "ij", "SYM"), ("KL", "kl", "SYM"),
                  ("linea", "lineo", "NOUN"), ("angulus", "angulo", "NOUN")]]
    genres["Science"] = (simple_doc(gold_rows), simple_doc(pred_rows))
    return genres


def test_sym_errors_dominate_then_drop_when_filtered():
    genres = _science_sym_fixture()
    reports = {g: evaluate(gold, pred, ("lemma",)) for g, (gold, pred) in genres.items()}
    dist = genre_distribution(reports, "lemma")
    total = sum(dist.counts.values())
    sym_share = 6 / total
    assert sym_share > 0.10
    assert dist.counts["Science"] == 8

    # rerun with SYM tokens excluded: only the two ordinary Science errors remain
    pairs = {g: lemma_error_pairs(gold, pred) for g, (gold, pred) in genres.items()}
    assert len(pairs["Science"]) == 2
    pairs_with_sym = {g: lemma_error_pairs(gold, pred, include_sym=True)
                      for g, (gold, pred) in genres.items()}
    assert len(pairs_with_sym["Science"]) == 8


def test_lemma_error_pairs_skips_case_only_differences():
    gold = simple_doc([[("Kinga", "Kinga", "PROPN")]])
    pred = simple_doc([[("Kinga", "kinga", "PROPN")]])
    assert lemma_error_pairs(gold, pred) == []
