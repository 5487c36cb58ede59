import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin import lemmatizer, tagger
from medlatin.analysis import lemma_error_pairs, pos_confusions
from medlatin.conllu import TASKS, Document, Sentence, Token, serialize
from medlatin.errors import MedlatinError
from medlatin.evaluation import AlignmentMismatch, EvalReport, evaluate
from medlatin.registry import (EFONTES_GENRE, UD_TREEBANK, DatasetDescriptor, Registry,
                               load_dataset, load_registry, make_cv_splits,
                               reference_registry)
from medlatin.scenarios import (SCENARIO_KINDS, LabelClash, MissingDataset, ResultRow,
                                RunPlan, Scenario, TrainingRun, compare,
                                derive_seed, execute,
                                materialize_corpus, merge_results_file, plan,
                                predict_document, read_results_file,
                                write_results_file)
from medlatin.tagger import load_model as load_tagger_model

from conftest import MINI_REGISTRY, simple_doc


@pytest.fixture(scope="module")
def mini_registry():
    return load_registry(MINI_REGISTRY)


def test_plan_counts_on_reference_registry():
    reg = reference_registry()
    assert len(plan(Scenario("baseline"), reg).runs) == 15
    assert len(plan(Scenario("ud_all"), reg).runs) == 3
    specific = plan(Scenario("ud_plus_specific"), reg)
    assert len(specific.runs) == 15
    assert sum(len(run.test_datasets) for run in specific.runs) == 75
    assert len(plan(Scenario("ud_plus_efontes"), reg).runs) == 15


def test_plan_single_ud_restriction():
    reg = reference_registry()
    p = plan(Scenario("ud_plus_specific", ud_name="ITTB"), reg)
    assert len(p.runs) == 3
    for run in p.runs:
        assert run.stages[0] == ("PROIEL", "Perseus", "LLCT", "ITTB", "UDante")
        assert run.stages[1] == ("ITTB",)


def test_plan_unknown_ud_name():
    with pytest.raises(MissingDataset):
        plan(Scenario("ud_plus_specific", ud_name="Nonexistent"), reference_registry())


def test_plan_stage_structure():
    reg = reference_registry()
    baseline = plan(Scenario("baseline"), reg)
    for run in baseline.runs:
        assert len(run.stages) == 1
        assert run.test_datasets[0] not in run.stages[0]
    staged = plan(Scenario("ud_plus_efontes"), reg)
    for run in staged.runs:
        assert len(run.stages) == 2
        assert run.stages[0] == ("PROIEL", "Perseus", "LLCT", "ITTB", "UDante")


def old_plan(scenario: Scenario, registry: Registry) -> RunPlan:
    """plan as it was before the two run shapes, one branch per kind, kept
    verbatim as the reference it is tested against."""
    genres = registry.genres()
    ud_sets = registry.ud_treebanks()
    runs: list[TrainingRun] = []

    if scenario.kind in ("baseline", "ud_plus_efontes"):
        if len(genres) < 2:
            raise MissingDataset(
                f"scenario {scenario.kind!r} needs at least 2 genre datasets")
        folds = make_cv_splits(genres)
    if scenario.kind in ("ud_all", "ud_plus_specific", "ud_plus_efontes"):
        if not ud_sets:
            raise MissingDataset(f"scenario {scenario.kind!r} needs UD treebank datasets")

    if scenario.kind == "baseline":
        for task in scenario.tasks:
            for fold in folds:
                runs.append(TrainingRun(
                    run_id=f"baseline__{task}__{fold.test_dataset.lower()}",
                    scenario_label="baseline",
                    task=task,
                    stages=(fold.train_datasets,),
                    test_datasets=(fold.test_dataset,),
                ))
    elif scenario.kind == "ud_all":
        if not genres:
            raise MissingDataset("scenario 'ud_all' needs genre datasets to test on")
        for task in scenario.tasks:
            runs.append(TrainingRun(
                run_id=f"ud_all__{task}",
                scenario_label="ud_all",
                task=task,
                stages=(tuple(ud_sets),),
                test_datasets=tuple(genres),
            ))
    elif scenario.kind == "ud_plus_specific":
        if not genres:
            raise MissingDataset("scenario 'ud_plus_specific' needs genre datasets to test on")
        if scenario.ud_name is not None:
            if scenario.ud_name not in ud_sets:
                raise MissingDataset(f"scenario 'ud_plus_specific' needs a registered "
                                     f"UD treebank, not {scenario.ud_name!r}")
            selected = [scenario.ud_name]
        else:
            selected = ud_sets
        for ud in selected:
            for task in scenario.tasks:
                runs.append(TrainingRun(
                    run_id=f"ud_plus_{ud.lower()}__{task}",
                    scenario_label=f"ud_plus_{ud.lower()}",
                    task=task,
                    stages=(tuple(ud_sets), (ud,)),
                    test_datasets=tuple(genres),
                ))
    elif scenario.kind == "ud_plus_efontes":
        for task in scenario.tasks:
            for fold in folds:
                runs.append(TrainingRun(
                    run_id=f"ud_plus_efontes__{task}__{fold.test_dataset.lower()}",
                    scenario_label="ud_plus_efontes",
                    task=task,
                    stages=(tuple(ud_sets), fold.train_datasets),
                    test_datasets=(fold.test_dataset,),
                ))
    return RunPlan(scenario, tuple(runs))


def _outcome(planner, scenario, registry):
    try:
        return planner(scenario, registry).runs
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


# Registry rejects names that differ only in case (run ids lowercase them),
# so the drawn names are unique after lowercasing.
_NAMES = ("Annals", "annals", "Science", "ITTB", "ittb", "PROIEL", "Perseus")


@settings(max_examples=1000, deadline=None)
@given(datasets=st.lists(st.tuples(st.sampled_from(_NAMES),
                                   st.sampled_from((UD_TREEBANK, EFONTES_GENRE))),
                         max_size=6, unique_by=lambda d: d[0].lower()),
       kind=st.sampled_from(SCENARIO_KINDS),
       tasks=st.lists(st.sampled_from(tuple(TASKS)), unique=True),
       data=st.data())
def test_plan_matches_old_plan(datasets, kind, tasks, data):
    registry = Registry([DatasetDescriptor(name, k) for name, k in datasets])
    ud_name = data.draw(st.sampled_from(
        [None, "Nonexistent"] + registry.ud_treebanks() + registry.genres()), label="ud_name")
    scenario = Scenario(kind, tuple(tasks), ud_name)
    assert _outcome(plan, scenario, registry) == _outcome(old_plan, scenario, registry)


@pytest.mark.parametrize("name", ["eFontes", "EFONTES"])
def test_plan_rejects_treebank_labelled_like_ud_plus_efontes(name):
    registry = Registry([DatasetDescriptor("Annals", EFONTES_GENRE),
                         DatasetDescriptor("Science", EFONTES_GENRE),
                         DatasetDescriptor("PROIEL", UD_TREEBANK),
                         DatasetDescriptor(name, UD_TREEBANK)])
    message = (f"^UD treebank '{name}' would label its ud_plus_specific runs "
               f"'ud_plus_efontes', the label of scenario 'ud_plus_efontes'$")
    for ud_name in (None, name):
        with pytest.raises(LabelClash, match=message):
            plan(Scenario("ud_plus_specific", ud_name=ud_name), registry)
    only_proiel = plan(Scenario("ud_plus_specific", ud_name="PROIEL"), registry)
    assert {run.scenario_label for run in only_proiel.runs} == {"ud_plus_proiel"}
    for kind in ("baseline", "ud_all", "ud_plus_efontes"):
        assert plan(Scenario(kind), registry).runs


def test_run_ids_unique_enforced():
    run = TrainingRun("same", "x", "upos", (("A",),), ("B",))
    with pytest.raises(ValueError):
        RunPlan(Scenario("baseline"), (run, run))


def test_derive_seed_stable():
    assert derive_seed(0, "run", 0) == derive_seed(0, "run", 0)
    assert derive_seed(0, "run", 0) != derive_seed(0, "run", 1)
    assert derive_seed(0, "run", 0) != derive_seed(1, "run", 0)


def _solo_registry(tmp_path, extra=""):
    sentence = [("terram", "terra", "NOUN", "Case=Acc"),
                ("laudat", "laudo", "VERB", "Tense=Pres"),
                ("bonus", "bonus", "ADJ", "Degree=Pos"),
                (".", ".", "PUNCT")]
    doc = simple_doc([sentence] * 12, name="Solo")
    (tmp_path / "solo.conllu").write_text(serialize(doc), encoding="utf-8")
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[dataset:Solo]\nkind = efontes_genre\npaths = solo.conllu\n" + extra,
                   encoding="utf-8")
    return load_registry(str(cfg))


@pytest.mark.parametrize("task", ["upos", "ufeats", "lemma"])
def test_execute_memorization_upper_bound(tmp_path, task):
    registry = _solo_registry(tmp_path)
    run = TrainingRun(f"solo__{task}", "solo", task, (("Solo",),), ("Solo",))
    rows = execute([run], registry, str(tmp_path / "out"), epochs=10)
    assert [(r.scenario, r.genre, r.task, r.accuracy) for r in rows] == [
        ("solo", "Solo", task, Decimal("100.00"))]


@pytest.mark.parametrize("had_results", [False, True], ids=["no-store", "store"])
def test_failed_run_keeps_earlier_models_and_no_rows(tmp_path, had_results):
    registry = _solo_registry(tmp_path, extra="[dataset:Ghost]\nkind = efontes_genre\n")
    first = TrainingRun("first", "s", "lemma", (("Solo",),), ("Solo",))
    second = TrainingRun("second", "s", "lemma", (("Ghost",),), ("Solo",))
    out = tmp_path / "out"
    results = out / "results.tsv"
    if had_results:
        out.mkdir()
        write_results_file(str(results), [ResultRow("old", "baseline", "Annals", "upos",
                                                    Decimal("90.00"))])
        before = results.read_bytes()
    with pytest.raises(MedlatinError, match=r"^run 'second': "):
        execute([first, second], registry, str(out))
    assert os.listdir(out / "models") == ["first.json"]
    model = lemmatizer.load_model(str(out / "models" / "first.json"))
    assert [stage["datasets"] for stage in model.provenance] == [["Solo"]]
    if had_results:
        assert results.read_bytes() == before
    else:
        assert not results.exists()


def test_execute_full_mini_grid_shape_and_determinism(tmp_path, mini_registry):
    runs = [run for kind in SCENARIO_KINDS for run in plan(Scenario(kind), mini_registry).runs]
    results, stores = [], []
    for attempt in (1, 2):
        out = tmp_path / f"run{attempt}"
        results.append(execute(runs, mini_registry, str(out), epochs=1))
        stores.append((out / "results.tsv").read_bytes())
    assert results[0] == results[1]
    assert stores[0] == stores[1]
    rows = results[0]
    labels = {row.scenario for row in rows}
    assert labels == {"baseline", "ud_all", "ud_plus_ud_alpha",
                      "ud_plus_ud_beta", "ud_plus_efontes"}
    genres = {row.genre for row in rows}
    assert genres == {"Annals", "Biography", "Normative", "Proceedings", "Science"}
    cells = {(row.scenario, row.genre, row.task) for row in rows}
    assert len(cells) == len(rows) == len(labels) * 5 * 3


def test_execute_persists_models_with_provenance(tmp_path, mini_registry):
    run_plan = plan(Scenario("ud_plus_efontes", tasks=("upos",)), mini_registry)
    run = run_plan.runs[0]
    out = str(tmp_path / "out")
    execute([run], mini_registry, out, epochs=1)
    model = load_tagger_model(os.path.join(out, "models", f"{run.run_id}.json"))
    assert tuple(stage.datasets for stage in model.provenance) == run.stages
    assert [stage.was_continued for stage in model.provenance] == [False, True]


def test_execute_writes_results_file(tmp_path, mini_registry):
    out = str(tmp_path / "out")
    run_plan = plan(Scenario("ud_all", tasks=("lemma",)), mini_registry)
    rows = execute(run_plan.runs, mini_registry, out, epochs=1)
    assert set(read_results_file(os.path.join(out, "results.tsv"))) == set(rows)


def test_results_file_roundtrip_and_merge(tmp_path):
    path = str(tmp_path / "results.tsv")
    rows = [
        ResultRow("r1", "baseline", "Annals", "upos", Decimal("90.00")),
        ResultRow("r2", "ud_all", "Annals", "upos", Decimal("80.00")),
    ]
    write_results_file(path, rows)
    assert read_results_file(path) == sorted(rows, key=lambda r: r.scenario)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == "#format=medlatin.results.v1\n"
    merge_results_file(path, [ResultRow("r1", "baseline", "Annals", "upos",
                                        Decimal("95.00"))])
    merged = {(r.run_id, r.genre, r.task): r.accuracy for r in read_results_file(path)}
    assert merged[("r1", "Annals", "upos")] == Decimal("95.00")
    assert merged[("r2", "Annals", "upos")] == Decimal("80.00")


RESULTS_HEAD = "#format=medlatin.results.v1\nrun_id\tscenario\tgenre\ttask\taccuracy\n"


@pytest.mark.parametrize("row, message", [
    ("r1\tbaseline\tAnnals", "expected 5 tab-separated fields, got 3"),
    ("r1\tbaseline\tAnnals\tupos\t90.00\textra", "expected 5 tab-separated fields, got 6"),
    ("r1\tbaseline\tAnnals\tupos\tninety", "accuracy 'ninety' is not a decimal"),
    ("r1\tbaseline\tAnnals\tupos\tNaN", "accuracy 'NaN' is not a decimal"),
    ("r1\tbaseline\tAnnals\tupos\t", "accuracy '' is not a decimal"),
    ("r1\tbaseline\tAnnals\tupos\t 90.00", "accuracy ' 90.00' is not a decimal"),
])
def test_read_results_file_rejects_malformed_row(tmp_path, row, message):
    path = tmp_path / "results.tsv"
    path.write_text(RESULTS_HEAD + "r0\tud_all\tAnnals\tupos\t80.00\n" + row + "\n",
                    encoding="utf-8")
    with pytest.raises(MedlatinError, match=f"results.tsv: line 4: {message}"):
        read_results_file(str(path))


@pytest.mark.parametrize("failure", ["unencodable-row", "replace-fails"])
def test_failed_results_write_keeps_previous_store(tmp_path, monkeypatch, failure):
    path = tmp_path / "results.tsv"
    write_results_file(str(path), [ResultRow("r1", "baseline", "Annals", "upos",
                                             Decimal("90.00"))])
    before = path.read_bytes()
    row = ResultRow("r2", "ud_all", "Annals", "upos", Decimal("80.00"))
    if failure == "unencodable-row":
        # A lone surrogate cannot be encoded as UTF-8: the write fails after
        # the temporary file was opened.
        with pytest.raises(UnicodeEncodeError):
            merge_results_file(str(path), [dataclasses.replace(row, run_id="r\ud800")])
    else:
        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(MedlatinError, match=r"cannot write \(disk full\)$"):
            merge_results_file(str(path), [row])
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["results.tsv", "results.tsv.lock"]


def test_merge_waits_for_the_store_lock(tmp_path):
    fcntl = pytest.importorskip("fcntl")
    path = str(tmp_path / "results.tsv")
    first = ResultRow("r1", "baseline", "Annals", "upos", Decimal("90.00"))
    other = ResultRow("r2", "ud_all", "Annals", "upos", Decimal("80.00"))
    merged = ResultRow("r3", "ud_all", "Annals", "lemma", Decimal("70.00"))
    write_results_file(path, [first])
    with ThreadPoolExecutor(max_workers=1) as pool:
        with open(path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            future = pool.submit(merge_results_file, path, [merged])
            with pytest.raises(FutureTimeout):
                future.result(timeout=0.5)
            assert read_results_file(path) == [first]
            # Another writer's merge, made while it holds the lock.
            write_results_file(path, [first, other])
        future.result(timeout=30)
    assert set(read_results_file(path)) == {first, other, merged}


def result_rows(grid):
    """ResultRows of a {(scenario, genre, task): accuracy} dict."""
    return [ResultRow(f"{scenario}__{task}", scenario, genre, task, accuracy)
            for (scenario, genre, task), accuracy in grid.items()]


def marked(entries, genre, task):
    """(best, worst): the scenarios that compare marks best and worst in one column."""
    column = [e for e in entries if (e.genre, e.task) == (genre, task)]
    return {e.scenario for e in column if e.is_best}, {e.scenario for e in column if e.is_worst}


def test_compare_biography_upos_column():
    values = {
        "baseline": "95.43", "ud_all": "90.19", "ud_plus_ittb": "89.58",
        "ud_plus_llct": "89.87", "ud_plus_perseus": "90.34",
        "ud_plus_proiel": "77.34", "ud_plus_udante": "90.20",
        "ud_plus_efontes": "96.10",
    }
    grid = {(scenario, "Biography", "upos"): Decimal(v) for scenario, v in values.items()}
    entries = compare(result_rows(grid))
    assert marked(entries, "Biography", "upos") == ({"ud_plus_efontes"}, {"ud_plus_proiel"})


def test_compare_single_scenario_is_both_best_and_worst():
    entries = compare(result_rows({("only", "G", "upos"): Decimal("50.00")}))
    assert marked(entries, "G", "upos") == ({"only"}, {"only"})


def test_compare_ties_mark_all():
    grid = {("a", "G", "upos"): Decimal("80.00"), ("b", "G", "upos"): Decimal("80.00")}
    entries = compare(result_rows(grid))
    assert marked(entries, "G", "upos") == ({"a", "b"}, {"a", "b"})


def test_compare_never_unique_best_and_worst_in_multi_entry_column():
    grid = {("a", "G", "upos"): Decimal("80.00"), ("b", "G", "upos"): Decimal("70.00")}
    for entry in compare(result_rows(grid)):
        assert not (entry.is_best and entry.is_worst)


def test_scenario_rejects_unknown_kind_and_task():
    with pytest.raises(ValueError):
        Scenario("mystery")
    with pytest.raises(ValueError):
        Scenario("baseline", tasks=("deps",))


def reference_predict_document(model, task, gold):
    """predict_document as it was before the task table, kept as the reference."""
    new_sentences = []
    for sentence in gold.sentences:
        if task in ("upos", "ufeats"):
            tags = tagger.tag(model, sentence)
            new_tokens = []
            for tok, label in zip(sentence.tokens, tags):
                if task == "upos":
                    new_tokens.append(dataclasses.replace(tok, upos=label))
                else:
                    feats = () if label == "_" else tuple(
                        tuple(kv.split("=", 1)) for kv in label.split("|"))
                    new_tokens.append(dataclasses.replace(tok, ufeats=feats))
        else:
            new_tokens = [
                dataclasses.replace(
                    tok, lemma=lemmatizer.lemmatize(model, lemmatizer.LemmaQuery(tok.form, tok.upos)))
                for tok in sentence.tokens
            ]
        new_sentences.append(dataclasses.replace(sentence, tokens=tuple(new_tokens)))
    return Document(tuple(new_sentences), gold.source_name)


def reference_field_value(token, field):
    if field == "upos":
        return token.upos
    if field == "ufeats":
        return token.feats_string()
    if field == "lemma":
        return token.lemma.lower()
    raise ValueError(f"unknown field {field!r}")


def reference_check_alignment(gold, predicted):
    """check_alignment as it was before it returned the tokens, kept as the reference."""
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


def reference_evaluate(gold, predicted, fields=("upos", "ufeats", "lemma")):
    """evaluate as it was before the task table, counting matches per field,
    kept as the reference."""
    reference_check_alignment(gold, predicted)
    total = gold.token_count()
    matches = {f: 0 for f in fields}
    for g_sent, p_sent in zip(gold.sentences, predicted.sentences):
        for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
            for f in fields:
                if reference_field_value(g_tok, f) == reference_field_value(p_tok, f):
                    matches[f] += 1
    accuracy = {f: (Decimal(100 * matches[f]) / Decimal(total)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP) if total else Decimal("0.00")
        for f in fields}
    return EvalReport(accuracy, total, matches)


def reference_lemma_error_pairs(gold, predicted, include_sym=False):
    """lemma_error_pairs as it was before check_alignment returned the tokens."""
    reference_check_alignment(gold, predicted)
    pairs = []
    for g_sent, p_sent in zip(gold.sentences, predicted.sentences):
        for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
            if g_tok.upos == "SYM" and not include_sym:
                continue
            if g_tok.lemma.lower() != p_tok.lemma.lower():
                pairs.append((g_tok.lemma.lower(), p_tok.lemma.lower()))
    return pairs


def reference_pos_confusions(gold, predicted):
    """pos_confusions as it was before check_alignment returned the tokens."""
    reference_check_alignment(gold, predicted)
    matrix = {}
    for g_sent, p_sent in zip(gold.sentences, predicted.sentences):
        for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
            if g_tok.upos != p_tok.upos:
                key = (g_tok.upos, p_tok.upos)
                matrix[key] = matrix.get(key, 0) + 1
    return matrix


_PAIR_FORMS = st.sampled_from(("arma", "uirum", "cano", "Æneas"))
_PAIR_LABELS = st.tuples(
    st.sampled_from(("arma", "Arma", "uir", "ÆNEAS", "æneas", "_")),
    st.sampled_from(("NOUN", "VERB", "SYM", "PROPN")),
    st.sampled_from(((), (("Case", "Nom"),), (("Case", "Acc"), ("Number", "Sing")))))


@st.composite
def document_pairs(draw):
    """A gold and a predicted document with independently drawn labels: about
    half keep the gold forms and sentence shape, the rest take one to three
    edits (a form swapped, a token or a sentence added or dropped)."""
    gold_forms = draw(st.lists(st.lists(_PAIR_FORMS, min_size=1, max_size=5), max_size=4))
    pred_forms = [list(sentence) for sentence in gold_forms]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        edit = draw(st.sampled_from(("form", "add_token", "drop_token",
                                     "add_sentence", "drop_sentence")))
        if edit == "add_sentence" or not pred_forms:
            pred_forms.insert(draw(st.integers(0, len(pred_forms))), [draw(_PAIR_FORMS)])
            continue
        s_idx = draw(st.integers(0, len(pred_forms) - 1))
        sentence = pred_forms[s_idx]
        if edit == "drop_sentence":
            del pred_forms[s_idx]
        elif edit == "add_token":
            sentence.insert(draw(st.integers(0, len(sentence))), draw(_PAIR_FORMS))
        elif sentence:
            t_idx = draw(st.integers(0, len(sentence) - 1))
            if edit == "drop_token":
                del sentence[t_idx]
            else:
                sentence[t_idx] = draw(_PAIR_FORMS)

    def document(forms, name):
        return Document(tuple(Sentence(tuple(Token(i + 1, form, *draw(_PAIR_LABELS))
                                             for i, form in enumerate(sentence)))
                              for sentence in forms), name)

    return document(gold_forms, "g"), document(pred_forms, "p")


def _result(func, *args):
    try:
        return func(*args)
    except AlignmentMismatch as exc:
        return "AlignmentMismatch", str(exc)


@settings(max_examples=400, deadline=None)
@given(pair=document_pairs(),
       fields=st.lists(st.sampled_from(tuple(TASKS)), unique=True).map(tuple),
       include_sym=st.booleans())
def test_aligned_pair_walks_match_references(pair, fields, include_sym):
    gold, predicted = pair
    assert (_result(evaluate, gold, predicted, fields)
            == _result(reference_evaluate, gold, predicted, fields))
    assert (_result(lemma_error_pairs, gold, predicted, include_sym)
            == _result(reference_lemma_error_pairs, gold, predicted, include_sym))
    assert (_result(pos_confusions, gold, predicted)
            == _result(reference_pos_confusions, gold, predicted))


@pytest.mark.parametrize("task", ["upos", "ufeats", "lemma"])
def test_predict_and_evaluate_match_reference(mini_registry, task):
    corpus = materialize_corpus(mini_registry, tuple(mini_registry.ud_treebanks()))
    if task == "lemma":
        model = lemmatizer.train_lemmatizer(corpus)
    else:
        model = tagger.train(corpus, task, epochs=2, seed=0)
    errors = 0
    for name in mini_registry.genres():
        gold = load_dataset(mini_registry, name)
        predicted = predict_document(model, task, gold)
        expected = reference_predict_document(model, task, gold)
        assert predicted == expected
        assert serialize(predicted) == serialize(expected)
        for fields in (("upos", "ufeats", "lemma"), (task,)):
            report = evaluate(gold, predicted, fields)
            assert report == reference_evaluate(gold, predicted, fields)
        errors += report.token_count - report.matches[task]
    assert errors  # the models are not perfect, so labels were really written
