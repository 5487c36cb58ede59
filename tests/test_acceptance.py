"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a full run reads as a checklist.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import glob
import os
import random
import string
import time
from decimal import ROUND_HALF_UP, Decimal

from medlatin.analysis import align_chars, mine_confusions
from medlatin.cli import run_cli
from medlatin.conllu import Document, Sentence, Token, parse_conllu, serialize
from medlatin.evaluation import evaluate
from medlatin.lemmatizer import (LemmaQuery, apply_edit_script,
                                 derive_edit_script, lemmatize,
                                 train_lemmatizer)
from medlatin.registry import (load_dataset, load_registry,
                               reference_registry, validate_registry)
from medlatin.scenarios import ResultRow, Scenario, compare, execute, plan
from medlatin.tagger import tag, train

from conftest import MINI_REGISTRY, ROUNDTRIP_DIR, TOY_CORPUS, alignment_cost


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_roundtrip_byte_exact():
    paths = sorted(glob.glob(os.path.join(ROUNDTRIP_DIR, "*.conllu")))
    started = time.perf_counter()
    ok = len(paths) >= 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        ok = ok and serialize(parse_conllu(text)) == text
    elapsed = time.perf_counter() - started
    _report(1, f"round-trip ({len(paths)} files, {elapsed:.3f}s)", ok and elapsed < 1.0)


def test_02_scenario_arithmetic():
    reg = reference_registry()
    baseline = plan(Scenario("baseline"), reg)
    ud_all = plan(Scenario("ud_all"), reg)
    specific = plan(Scenario("ud_plus_specific"), reg)
    staged = plan(Scenario("ud_plus_efontes"), reg)
    ok = (len(baseline.runs) == 15 and len(ud_all.runs) == 3
          and len(specific.runs) == 15
          and sum(len(run.test_datasets) for run in specific.runs) == 75
          and len(staged.runs) == 15)
    _report(2, "scenario arithmetic 15/3/15(75)/15", ok)


def test_03_stats_validator_flags():
    reg = reference_registry()
    at_05 = {n for n, v in validate_registry(reg, "0.05").items() if not v.consistent}
    at_02 = {n for n, v in validate_registry(reg, "0.02").items() if not v.consistent}
    ok = at_05 == {"LLCT", "Proceedings"} and at_02 == {"LLCT", "Proceedings", "Science"}
    _report(3, "stats validator flags LLCT+Proceedings (0.05), +Science (0.02)", ok)


def test_04_edit_script_inverse_property():
    rng = random.Random(20240501)
    started = time.perf_counter()
    failures = 0
    for _ in range(100_000):
        form = "".join(rng.choice(string.ascii_lowercase)
                       for _ in range(rng.randint(1, 20)))
        lemma = "".join(rng.choice(string.ascii_lowercase)
                        for _ in range(rng.randint(1, 20)))
        if apply_edit_script(derive_edit_script(form, lemma), form) != lemma:
            failures += 1
    elapsed = time.perf_counter() - started
    _report(4, f"edit-script inverse on 10^5 pairs ({elapsed:.2f}s)",
            failures == 0 and elapsed < 10.0)


def test_05_alignment_cost_oracle():
    def levenshtein(a: str, b: str) -> int:
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

    rng = random.Random(20240502)
    mismatches = 0
    for _ in range(10_000):
        a = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 20)))
        if alignment_cost(align_chars(a, b)) != levenshtein(a, b):
            mismatches += 1
    _report(5, "alignment cost equals Levenshtein oracle on 10^4 pairs", mismatches == 0)


def _random_eval_pair(rng: random.Random, n_tokens: int):
    upos_pool = ["NOUN", "VERB", "ADJ", "PRON", "SYM"]
    gold_sents, pred_sents = [], []
    remaining = n_tokens
    while remaining > 0:
        size = min(remaining, rng.randint(1, 10))
        remaining -= size
        g_toks, p_toks = [], []
        for i in range(size):
            form = f"w{rng.randint(0, 200)}"
            g_toks.append(Token(i + 1, form, f"l{rng.randint(0, 5)}",
                                rng.choice(upos_pool),
                                (("Case", rng.choice("AB")),)))
            p_toks.append(Token(i + 1, form, f"l{rng.randint(0, 5)}",
                                rng.choice(upos_pool),
                                (("Case", rng.choice("AB")),)))
        gold_sents.append(Sentence(tuple(g_toks)))
        pred_sents.append(Sentence(tuple(p_toks)))
    return Document(tuple(gold_sents), "g"), Document(tuple(pred_sents), "p")


def test_06_evaluation_oracle_bit_exact():
    rng = random.Random(20240503)
    ok = True
    for case in range(100):
        n_tokens = 10_000 if case == 0 else rng.randint(1, 2000)
        gold, pred = _random_eval_pair(rng, n_tokens)
        report = evaluate(gold, pred)
        for field in ("upos", "ufeats", "lemma"):
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
                    matches += same
            expected = (Decimal(matches) * 100 / Decimal(total)).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_UP)
            ok = ok and report.accuracy[field] == expected and report.matches[field] == matches
    _report(6, "evaluation equals brute-force oracle on 100 random fixtures", ok)


def test_07_tagger_convergence_and_determinism():
    with open(TOY_CORPUS, encoding="utf-8") as fh:
        toy = parse_conllu(fh.read(), source_name="toy")
    ok = len(toy.sentences) == 500
    model_a = train(toy, "upos", epochs=10, seed=11)
    model_b = train(toy, "upos", epochs=10, seed=11)
    ok = ok and model_a == model_b
    for sentence in toy.sentences:
        predicted = tag(model_a, sentence)
        ok = ok and predicted == [t.upos for t in sentence.tokens]
        if not ok:
            break
    _report(7, "tagger reaches 100% on toy corpus within 10 epochs, deterministically", ok)


def test_08_lemmatizer_memorization_and_wire_format(tmp_path, capsys):
    registry = load_registry(MINI_REGISTRY)
    sentences = []
    for genre in registry.genres():
        sentences.extend(load_dataset(registry, genre).sentences)
    corpus = Document(tuple(sentences), "genres")
    model = train_lemmatizer(corpus)
    total = matches = 0
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            total += 1
            predicted = lemmatize(model, LemmaQuery(token.form, token.upos))
            matches += predicted == token.lemma.lower()
    accuracy = 100.0 * matches / total
    ok = accuracy >= 99.0
    ok = ok and lemmatize(model, LemmaQuery("CD", "SYM")) == "_"

    train_file = tmp_path / "wire_train.conllu"
    train_file.write_text(
        "1\tadducam\tadduco\tVERB\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    model_file = tmp_path / "wire_model.json"
    queries = tmp_path / "queries.txt"
    queries.write_text("adducam:VERB\n", encoding="utf-8")
    code_train = run_cli(["lemmatize", "train", "--in", str(train_file),
                          "--out", str(model_file)])
    code_run = run_cli(["lemmatize", "run", "--model", str(model_file),
                        "--in", str(queries)])
    out = capsys.readouterr().out
    ok = ok and code_train == 0 and code_run == 0 and out == "adduco\n"
    _report(8, f"lemmatizer memorization ({accuracy:.2f}%), SYM policy, wire format", ok)


def test_09_confusion_mining_fidelity():
    errors = ([("uideo", "video")] * 5 + [("gratia", "gracia")] * 2
              + [("kinga", "cinga")])
    mined = [(c.label(), c.position, c.count) for c in mine_confusions(errors)]
    expected = [("u:v", "initial", 5), ("k:c", "initial", 1), ("t:c", "middle", 2)]
    _report(9, "confusion mining exact table", mined == expected)


def marked(entries, genre, task):
    """(best, worst): the scenarios that compare marks best and worst in one column."""
    column = [e for e in entries if (e.genre, e.task) == (genre, task)]
    return {e.scenario for e in column if e.is_best}, {e.scenario for e in column if e.is_worst}


def test_10_comparison_highlighting():
    column = {
        "baseline": "95.43", "ud_all": "90.19", "ud_plus_ittb": "89.58",
        "ud_plus_llct": "89.87", "ud_plus_perseus": "90.34",
        "ud_plus_proiel": "77.34", "ud_plus_udante": "90.20",
        "ud_plus_efontes": "96.10",
    }
    entries = compare([ResultRow(f"{scenario}__upos", scenario, "Biography", "upos",
                                 Decimal(value)) for scenario, value in column.items()])
    ok = marked(entries, "Biography", "upos") == ({"ud_plus_efontes"}, {"ud_plus_proiel"})
    best_entry = [e for e in entries if e.is_best][0]
    worst_entry = [e for e in entries if e.is_worst][0]
    ok = ok and best_entry.accuracy == Decimal("96.10")
    ok = ok and worst_entry.accuracy == Decimal("77.34")
    _report(10, "comparison marks 96.10 best / 77.34 worst", ok)


def test_11_end_to_end_determinism(tmp_path):
    registry = load_registry(MINI_REGISTRY)
    contents = []
    for attempt in (1, 2):
        out_dir = str(tmp_path / f"run{attempt}")
        for kind in ("baseline", "ud_all", "ud_plus_specific", "ud_plus_efontes"):
            run_plan = plan(Scenario(kind), registry)
            execute(run_plan.runs, registry, out_dir, epochs=2)
        with open(os.path.join(out_dir, "results.tsv"), "rb") as fh:
            contents.append(fh.read())
    ok = contents[0] == contents[1] and len(contents[0]) > 0
    _report(11, "two full 4-scenario executions byte-identical", ok)
