import random
from decimal import ROUND_HALF_UP, Decimal

import pytest

from medlatin.conllu import Document, Sentence, Token
from medlatin.evaluation import (AlignmentMismatch, evaluate,
                                 evaluate_by_genre)

from conftest import simple_doc


def test_identical_documents_score_100():
    d = simple_doc([[("arma", "arma", "NOUN"), ("cano", "cano", "VERB")]])
    report = evaluate(d, d)
    assert report.accuracy == {
        "upos": Decimal("100.00"), "ufeats": Decimal("100.00"), "lemma": Decimal("100.00")}
    assert report.matches == {"upos": 2, "ufeats": 2, "lemma": 2}


def test_half_right_upos():
    gold = simple_doc([[("a", "a", "NOUN"), ("b", "b", "VERB")]])
    pred = simple_doc([[("a", "a", "NOUN"), ("b", "b", "ADJ")]])
    report = evaluate(gold, pred, ("upos",))
    assert report.accuracy["upos"] == Decimal("50.00")
    assert report.matches == {"upos": 1}


def test_lemma_compared_case_insensitively():
    gold = simple_doc([[("Kinga", "Kinga", "PROPN")]])
    pred = simple_doc([[("Kinga", "kinga", "PROPN")]])
    assert evaluate(gold, pred, ("lemma",)).accuracy["lemma"] == Decimal("100.00")


def test_ufeats_compared_canonically():
    gold = Document((Sentence((
        Token(1, "arma", "arma", "NOUN", (("Case", "Nom"), ("Number", "Sing"))),),),), "g")
    pred = Document((Sentence((
        Token(1, "arma", "arma", "NOUN", (("Case", "Nom"), ("Number", "Sing"))),),),), "p")
    assert evaluate(gold, pred, ("ufeats",)).accuracy["ufeats"] == Decimal("100.00")


def test_alignment_mismatch_on_form():
    gold = simple_doc([[("arma", "arma", "NOUN")]])
    pred = simple_doc([[("alma", "arma", "NOUN")]])
    with pytest.raises(AlignmentMismatch):
        evaluate(gold, pred)


def test_alignment_mismatch_on_counts():
    gold = simple_doc([[("a", "a", "NOUN")], [("b", "b", "NOUN")]])
    pred = simple_doc([[("a", "a", "NOUN")]])
    with pytest.raises(AlignmentMismatch):
        evaluate(gold, pred)


def _random_pair(rng, n_tokens):
    upos_pool = ["NOUN", "VERB", "ADJ", "PRON"]
    gold_sents, pred_sents = [], []
    remaining = n_tokens
    while remaining > 0:
        size = min(remaining, rng.randint(1, 9))
        remaining -= size
        g_toks, p_toks = [], []
        for i in range(size):
            form = f"w{rng.randint(0, 999)}"
            g_toks.append(Token(i + 1, form, f"l{rng.randint(0, 9)}",
                                rng.choice(upos_pool),
                                (("Case", rng.choice("ABC")),)))
            p_toks.append(Token(i + 1, form, f"l{rng.randint(0, 9)}",
                                rng.choice(upos_pool),
                                (("Case", rng.choice("ABC")),)))
        gold_sents.append(Sentence(tuple(g_toks)))
        pred_sents.append(Sentence(tuple(p_toks)))
    return Document(tuple(gold_sents), "g"), Document(tuple(pred_sents), "p")


def _oracle(gold, pred, field):
    """Independent brute-force count: no shared code with evaluate()."""
    matches = 0
    total = 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt, pt in zip(gs.tokens, ps.tokens):
            total += 1
            if field == "upos":
                same = gt.upos == pt.upos
            elif field == "ufeats":
                same = dict(gt.ufeats) == dict(pt.ufeats)
            else:
                same = gt.lemma.lower() == pt.lemma.lower()
            if same:
                matches += 1
    if total == 0:
        return Decimal("0.00"), 0
    pct = (Decimal(matches) * 100 / Decimal(total)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)
    return pct, matches


def test_matches_brute_force_oracle_on_random_fixture():
    rng = random.Random(99)
    gold, pred = _random_pair(rng, 1000)
    report = evaluate(gold, pred)
    for field in ("upos", "ufeats", "lemma"):
        pct, matches = _oracle(gold, pred, field)
        assert report.accuracy[field] == pct
        assert report.matches[field] == matches


def test_sentence_permutation_invariance():
    rng = random.Random(5)
    gold, pred = _random_pair(rng, 60)
    order = list(range(len(gold.sentences)))
    rng.shuffle(order)
    gold2 = Document(tuple(gold.sentences[i] for i in order), "g")
    pred2 = Document(tuple(pred.sentences[i] for i in order), "p")
    assert evaluate(gold, pred).accuracy == evaluate(gold2, pred2).accuracy


def test_evaluate_by_genre_independent():
    perfect = simple_doc([[("a", "a", "NOUN")]])
    gold = simple_doc([[("x", "x", "NOUN"), ("y", "y", "VERB")]])
    pred = simple_doc([[("x", "x", "NOUN"), ("y", "y", "ADJ")]])
    reports = evaluate_by_genre(
        {"g1": (perfect, perfect), "g2": (gold, pred)}, ("upos",))
    assert reports["g1"].accuracy["upos"] == Decimal("100.00")
    assert reports["g2"].accuracy["upos"] == Decimal("50.00")


def test_evaluate_by_genre_empty():
    assert evaluate_by_genre({}) == {}


def test_evaluate_by_genre_error_names_genre():
    gold = simple_doc([[("a", "a", "NOUN")]])
    pred = simple_doc([[("b", "a", "NOUN")]])
    with pytest.raises(AlignmentMismatch) as exc:
        evaluate_by_genre({"Annals": (gold, pred)})
    assert "Annals" in str(exc.value)
