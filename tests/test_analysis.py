import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin.analysis import (DEL, INS, MATCH, SUB, ConfusionPattern, IdenticalStrings,
                               align_chars, alignment_cost, extract_patterns,
                               genre_distribution, lemma_error_pairs,
                               mine_confusions, pos_confusions)
from medlatin.evaluation import evaluate
from conftest import simple_doc


def ops(gold, pred):
    return [(o.op, o.gold, o.pred) for o in align_chars(gold, pred)]


def test_align_uideo_video():
    assert ops("uideo", "video") == [
        ("sub", "u", "v"), ("match", "i", "i"), ("match", "d", "d"),
        ("match", "e", "e"), ("match", "o", "o")]


def test_align_identical():
    assert ops("abc", "abc") == [("match", "a", "a"), ("match", "b", "b"), ("match", "c", "c")]


def test_align_gratia_gracia():
    result = ops("gratia", "gracia")
    assert result[3] == ("sub", "t", "c")
    assert sum(1 for o in result if o[0] != "match") == 1


def _levenshtein(a: str, b: str) -> int:
    """Independent two-row DP, no shared code with align_chars."""
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
    assert alignment_cost(align_chars(a, b)) == _levenshtein(a, b)


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
    if gold == pred:
        with pytest.raises(IdenticalStrings):
            extract_patterns(gold, pred)
    else:
        joined = [(f"{g}:{p}", position) for g, p, position in extract_patterns(gold, pred)]
        assert joined == old_extract_patterns(gold, pred)


def test_patterns_keep_a_colon_on_either_side():
    # A PUNCT lemma such as ":" must not be split where a pattern label
    # would put its separator.
    assert extract_patterns(":", ".") == [(":", ".", "initial")]
    assert extract_patterns("a:b", "a;b") == [(":", ";", "middle")]
    assert mine_confusions([(":", "."), ("a:b", "a;b"), ("a:b", "a;b")]) == [
        ConfusionPattern(":", ".", "initial", 1), ConfusionPattern(":", ";", "middle", 2)]


def test_extract_patterns_identical_strings_error():
    with pytest.raises(IdenticalStrings):
        extract_patterns("idem", "idem")


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
