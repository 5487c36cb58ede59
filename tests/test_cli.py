import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from medlatin import lemmatizer, scenarios, tagger
from medlatin.cli import run_cli
from medlatin.conllu import parse_conllu

from conftest import MINI_DIR, MINI_REGISTRY, TOY_CORPUS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GOLD = (
    "1\tuideo\tuideo\tVERB\t_\t_\t_\t_\t_\t_\n"
    "2\tterram\tterra\tNOUN\t_\tCase=Acc\t_\t_\t_\t_\n"
    "\n"
)
PRED = (
    "1\tuideo\tvideo\tVERB\t_\t_\t_\t_\t_\t_\n"
    "2\tterram\tterra\tNOUN\t_\tCase=Acc\t_\t_\t_\t_\n"
    "\n"
)
MISALIGNED = (
    "1\tuideo\tuideo\tVERB\t_\t_\t_\t_\t_\t_\n"
    "\n"
)


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_missing_args_exit_2(capsys):
    assert run_cli(["eval"]) == 2


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "medlatin" in capsys.readouterr().out


def test_scenario_plan_baseline_lists_15_runs(capsys):
    assert run_cli(["scenario", "plan", "--scenario", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "15 runs, 15 evaluations" in out
    assert out.count("baseline__") == 15


def test_scenario_plan_machine_mode_versioned_header(capsys):
    assert run_cli(["--machine", "scenario", "plan", "--scenario", "ud_all"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "#format=medlatin.scenario.plan.v1"
    assert lines[1] == "run_id\tscenario\ttask\tstages\ttests"
    assert len([l for l in lines if l.startswith("ud_all__")]) == 3


@pytest.mark.parametrize("datasets, argv, message", [
    ({"Annals": "efontes_genre", "PROIEL": "ud_treebank"}, ["--scenario", "ud_plus_efontes"],
     "scenario 'ud_plus_efontes' needs at least 2 genre datasets"),
    ({"Annals": "efontes_genre", "Science": "efontes_genre"}, ["--scenario", "ud_all"],
     "scenario 'ud_all' needs UD treebank datasets"),
    ({"PROIEL": "ud_treebank"}, ["--scenario", "ud_plus_specific"],
     "scenario 'ud_plus_specific' needs genre datasets to test on"),
    ({"Annals": "efontes_genre", "PROIEL": "ud_treebank"},
     ["--scenario", "ud_plus_specific", "--ud", "ITTB"],
     "scenario 'ud_plus_specific' needs a registered UD treebank, not 'ITTB'"),
], ids=["too-few-genres", "no-ud-treebank", "no-test-genre", "unregistered-ud"])
def test_scenario_plan_missing_dataset_exits_1(tmp_path, capsys, datasets, argv, message):
    registry = tmp_path / "registry.cfg"
    registry.write_text("".join(f"[dataset:{name}]\nkind = {kind}\n"
                                for name, kind in datasets.items()), encoding="utf-8")
    assert run_cli(["scenario", "plan", "--registry", str(registry)] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: MissingDataset: {message}\n"
    assert captured.out == ""


def test_eval_exit_codes(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_text(PRED, encoding="utf-8")
    assert run_cli(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "lemma" in out and "50.00" in out and "100.00" in out


def test_eval_misaligned_exits_1_naming_error(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_text(MISALIGNED, encoding="utf-8")
    assert run_cli(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert "AlignmentMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval"], ["analyze", "--report", "confusions"], ["analyze", "--report", "pos"],
], ids=["eval", "confusions", "pos"])
@pytest.mark.parametrize("pred_text, detail", [
    (MISALIGNED, "sentence 0: 2 gold vs 1 predicted tokens"),
    ("", "document: 1 gold vs 0 predicted sentences"),
], ids=["short-sentence", "no-sentences"])
def test_misaligned_pair_names_both_files(tmp_path, capsys, command, pred_text, detail):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_text(pred_text, encoding="utf-8")
    assert run_cli(command + ["--gold", str(gold), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == f"error: AlignmentMismatch: {gold} vs {pred}: {detail}\n"


def test_corpus_stats_single_file(tmp_path, capsys):
    f = tmp_path / "x.conllu"
    f.write_text(GOLD, encoding="utf-8")
    assert run_cli(["--machine", "corpus", "stats", "--in", str(f)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "#format=medlatin.corpus.stats.v1"
    assert lines[-1].split("\t")[1:] == ["2", "1", "2.00"]


def test_corpus_stats_accepts_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "bom.conllu"
    f.write_text("\ufeff" + GOLD, encoding="utf-8")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf1\t")
    assert run_cli(["--machine", "corpus", "stats", "--in", str(f)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1].split("\t")[1:] == ["2", "1", "2.00"]


def test_corpus_stats_registry_dataset(capsys):
    assert run_cli(["corpus", "stats", "--registry", MINI_REGISTRY,
                    "--dataset", "Annals"]) == 0
    assert "Annals" in capsys.readouterr().out


def test_corpus_validate_reference_registry_default(capsys):
    assert run_cli(["--machine", "corpus", "validate"]) == 0
    out = capsys.readouterr().out
    assert "#format=medlatin.corpus.validate.v1" in out
    rows = {line.split("\t")[0]: line.split("\t")
            for line in out.strip().split("\n")[2:]}
    assert rows["LLCT"][4] == "INCONSISTENT"
    assert rows["Proceedings"][4] == "INCONSISTENT"
    assert rows["Science"][4] == "consistent"
    assert rows["Biography"][4] == "consistent"


def test_corpus_validate_tolerance_flag(capsys):
    assert run_cli(["--machine", "corpus", "validate", "--tolerance", "0.02"]) == 0
    out = capsys.readouterr().out
    science = [line for line in out.strip().split("\n") if line.startswith("Science")][0]
    assert "INCONSISTENT" in science


def test_corpus_check_reports_violations(tmp_path, capsys):
    f = tmp_path / "ok.conllu"
    f.write_text(GOLD, encoding="utf-8")
    assert run_cli(["--machine", "corpus", "check", "--in", str(f)]) == 0
    assert capsys.readouterr().out == "#format=medlatin.corpus.check.v1\nsentence\ttoken\trule\n"
    f.write_text(GOLD + "# orphan\n\n", encoding="utf-8")
    assert run_cli(["--machine", "corpus", "check", "--in", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: MalformedLine: {f}: line 4: "
                            "comment lines not followed by a sentence\n")


def test_normalize_cli(tmp_path, capsys):
    src = tmp_path / "in.conllu"
    src.write_text(
        "1\tVideo\tVideo\tVERB\t_\t_\t_\t_\t_\t_\n"
        "2\tgracia\tgracia\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "\n", encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run_cli(["normalize", "--in", str(src), "--out", str(out)]) == 0
    doc = parse_conllu(out.read_text(encoding="utf-8"))
    lemmas = [t.lemma for s in doc.sentences for t in s.tokens]
    forms = [t.form for s in doc.sentences for t in s.tokens]
    assert lemmas == ["Uideo", "gratia"]
    assert forms == ["Video", "gracia"]  # surface forms untouched


def test_normalize_cli_custom_ruleset(tmp_path):
    ruleset = tmp_path / "rules.tsv"
    ruleset.write_text("k2c\tk\tc\tanywhere\t\n", encoding="utf-8")
    src = tmp_path / "in.conllu"
    src.write_text("1\tkinga\tkinga\tPROPN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run_cli(["normalize", "--ruleset", str(ruleset), "--in", str(src),
                    "--out", str(out)]) == 0
    doc = parse_conllu(out.read_text(encoding="utf-8"))
    assert doc.sentences[0].tokens[0].lemma == "cinga"


def test_tagger_train_and_tag_cli(tmp_path, capsys):
    model = tmp_path / "tagger.json"
    assert run_cli(["tagger", "train", "--task", "upos", "--in", TOY_CORPUS,
                    "--out", str(model), "--epochs", "5", "--seed", "3"]) == 0
    tagged = tmp_path / "tagged.conllu"
    assert run_cli(["tagger", "tag", "--model", str(model), "--in", TOY_CORPUS,
                    "--out", str(tagged)]) == 0
    doc = parse_conllu(tagged.read_text(encoding="utf-8"))
    with open(TOY_CORPUS, encoding="utf-8") as fh:
        gold = parse_conllu(fh.read())
    assert [t.upos for s in doc.sentences for t in s.tokens] == \
           [t.upos for s in gold.sentences for t in s.tokens]


def test_tagger_tag_rejects_out_of_range_tag_index(tmp_path, capsys):
    model = tmp_path / "tagger.json"
    assert run_cli(["tagger", "train", "--task", "upos", "--in", TOY_CORPUS,
                    "--out", str(model), "--epochs", "1"]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["weights"].append([0, len(payload["tagset"]), 1.0])
    model.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["tagger", "tag", "--model", str(model), "--in", TOY_CORPUS,
                    "--out", str(tmp_path / "tagged.conllu")]) == 1
    err = capsys.readouterr().err
    assert "MedlatinError" in err and str(model) in err and "outside the tagset" in err


def test_tagger_train_rejects_base_with_shifted_feature_ids(tmp_path, capsys):
    model, out = tmp_path / "tagger.json", tmp_path / "out.json"
    assert run_cli(["tagger", "train", "--task", "upos", "--in", TOY_CORPUS,
                    "--out", str(model), "--epochs", "1"]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    n = len(payload["feature_vocabulary"])
    payload["feature_vocabulary"] = {f: i + n for f, i in payload["feature_vocabulary"].items()}
    payload["weights"] = [[f + n, t, w] for f, t, w in payload["weights"]]
    model.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["tagger", "train", "--task", "upos", "--in", TOY_CORPUS, "--base", str(model),
                    "--out", str(out), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: MedlatinError: {model}: malformed model (the feature vocabulary "
                   f"must number its {n} features 0 to {n - 1}, each once)\n")
    assert not out.exists()


def test_tagger_train_refuses_to_write_a_weight_that_overflowed(tmp_path, capsys):
    """A finite base weight near the float maximum overflows to inf in
    averaging; the model cannot hold it as JSON, so no file is written."""
    annals = os.path.join(MINI_DIR, "annals.conllu")
    base, out = tmp_path / "base.json", tmp_path / "cont.json"
    assert run_cli(["tagger", "train", "--task", "upos", "--in", annals, "--out", str(base)]) == 0
    payload = json.loads(base.read_text(encoding="utf-8"))
    f_id, t, _ = payload["weights"][0]
    payload["weights"][0][2] = 1e308
    base.write_text(json.dumps(payload), encoding="utf-8")
    feature = next(f for f, i in payload["feature_vocabulary"].items() if i == f_id)
    assert run_cli(["tagger", "train", "--task", "upos", "--base", str(base), "--in", annals,
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: MedlatinError: {out}: cannot write the weight inf of feature {feature!r}, "
        f"tag index {t}: not a finite number\n")
    assert sorted(os.listdir(tmp_path)) == ["base.json"]


@pytest.mark.parametrize("kind", ["tagger", "lemmatize"])
def test_train_rejects_base_whose_provenance_has_wrong_types(tmp_path, capsys, kind):
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    train = {"tagger": ["tagger", "train", "--task", "upos", "--epochs", "1"],
             "lemmatize": ["lemmatize", "train"]}[kind]
    assert run_cli(train + ["--in", TOY_CORPUS, "--out", str(model)]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["provenance"] = [{"datasets": "ud", "epochs": "5", "was_continued": "no"}]
    model.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(train + ["--in", TOY_CORPUS, "--base", str(model), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: MedlatinError: {model}: malformed model "
                                       "(provenance stage 0: datasets must be a list of "
                                       "strings, not 'ud')\n")
    assert not out.exists()


@pytest.mark.parametrize("task, label", [("upos", "BOGUS\tX"), ("ufeats", "Case")])
def test_tagger_tag_rejects_label_its_task_cannot_hold(tmp_path, capsys, task, label):
    model = tmp_path / "tagger.json"
    assert run_cli(["tagger", "train", "--task", task, "--in", TOY_CORPUS,
                    "--out", str(model), "--epochs", "1"]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["tagset"][-1] = label
    model.write_text(json.dumps(payload), encoding="utf-8")
    tagged = tmp_path / "tagged.conllu"
    assert run_cli(["tagger", "tag", "--model", str(model), "--in", TOY_CORPUS,
                    "--out", str(tagged)]) == 1
    err = capsys.readouterr().err
    assert "MedlatinError" in err and str(model) in err and repr(label) in err
    assert not tagged.exists()


def test_lemmatize_train_and_run_wire_format(tmp_path, capsys):
    train_file = tmp_path / "train.conllu"
    train_file.write_text(
        "1\tadducam\tadduco\tVERB\t_\t_\t_\t_\t_\t_\n"
        "2\tterram\tterra\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "\n", encoding="utf-8")
    model = tmp_path / "lemma.json"
    assert run_cli(["lemmatize", "train", "--in", str(train_file),
                    "--out", str(model)]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("adducam:VERB\nCD:SYM\nportam:NOUN\n", encoding="utf-8")
    assert run_cli(["lemmatize", "run", "--model", str(model),
                    "--in", str(queries)]) == 0
    assert capsys.readouterr().out == "adduco\n_\nporta\n"


def test_lemmatize_run_rejects_colon_in_form(tmp_path, capsys):
    train_file = tmp_path / "train.conllu"
    train_file.write_text("1\tres\tres\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    model = tmp_path / "lemma.json"
    run_cli(["lemmatize", "train", "--in", str(train_file), "--out", str(model)])
    queries = tmp_path / "queries.txt"
    out = tmp_path / "lemmas.txt"
    for query in ("a:b:VERB", "ducam:noun", "regis:FOO", "regis:"):
        queries.write_text(f"res:NOUN\n{query}\n", encoding="utf-8")
        assert run_cli(["lemmatize", "run", "--model", str(model),
                        "--in", str(queries), "--out", str(out)]) == 1
        assert f"{queries}: line 2: query {query!r}" in capsys.readouterr().err
        assert not out.exists()


def test_scenario_run_and_compare_cli(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(["scenario", "run", "--scenario", "ud_all",
                    "--registry", MINI_REGISTRY, "--out", str(out_dir),
                    "--epochs", "1", "--tasks", "upos"]) == 0
    capsys.readouterr()
    results = out_dir / "results.tsv"
    assert results.exists()
    assert (out_dir / "models" / "ud_all__upos.json").exists()
    assert run_cli(["scenario", "compare", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "ud_all" in out


# Three scenarios; Annals/upos has a tie for best, ud_plus_proiel has no
# Annals/lemma cell, Science/upos has a single entry, and Science/lemma has
# an unmarked middle cell.
COMPARE_STORE = (
    "#format=medlatin.results.v1\n"
    "run_id\tscenario\tgenre\ttask\taccuracy\n"
    "baseline__upos__annals\tbaseline\tAnnals\tupos\t80.00\n"
    "baseline__lemma__annals\tbaseline\tAnnals\tlemma\t70.50\n"
    "baseline__lemma__science\tbaseline\tScience\tlemma\t10.00\n"
    "ud_all__upos\tud_all\tAnnals\tupos\t90.00\n"
    "ud_all__lemma\tud_all\tAnnals\tlemma\t60.25\n"
    "ud_all__lemma\tud_all\tScience\tlemma\t20.00\n"
    "ud_plus_proiel__upos\tud_plus_proiel\tAnnals\tupos\t90.00\n"
    "ud_plus_proiel__upos\tud_plus_proiel\tScience\tupos\t55.00\n"
    "ud_plus_proiel__lemma\tud_plus_proiel\tScience\tlemma\t30.00\n"
)


@pytest.mark.parametrize("machine, expected", [
    (False,
     "scenario        Annals/lemma  Annals/upos  Science/lemma  Science/upos\n"
     "baseline        70.50*        80.00!       10.00!         -\n"
     "ud_all          60.25!        90.00*       20.00          -\n"
     "ud_plus_proiel  -             90.00*       30.00*         55.00*\n"),
    (True,
     "#format=medlatin.scenario.compare.v1\n"
     "scenario\tgenre\ttask\taccuracy\tbest\tworst\n"
     "baseline\tAnnals\tlemma\t70.50\tbest\t\n"
     "ud_all\tAnnals\tlemma\t60.25\t\tworst\n"
     "baseline\tAnnals\tupos\t80.00\t\tworst\n"
     "ud_all\tAnnals\tupos\t90.00\tbest\t\n"
     "ud_plus_proiel\tAnnals\tupos\t90.00\tbest\t\n"
     "baseline\tScience\tlemma\t10.00\t\tworst\n"
     "ud_all\tScience\tlemma\t20.00\t\t\n"
     "ud_plus_proiel\tScience\tlemma\t30.00\tbest\t\n"
     "ud_plus_proiel\tScience\tupos\t55.00\tbest\tworst\n"),
], ids=["human", "machine"])
def test_scenario_compare_output_is_exact(tmp_path, capsys, machine, expected):
    results = tmp_path / "results.tsv"
    results.write_text(COMPARE_STORE, encoding="utf-8")
    argv = ["scenario", "compare", "--results", str(results)]
    assert run_cli(["--machine"] * machine + argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_scenario_compare_rejects_short_results_row(tmp_path, capsys):
    results = tmp_path / "results.tsv"
    results.write_text("#format=medlatin.results.v1\n"
                       "run_id\tscenario\tgenre\ttask\taccuracy\n"
                       "ud_all__upos\tud_all\tAnnals\n", encoding="utf-8")
    assert run_cli(["scenario", "compare", "--results", str(results)]) == 1
    err = capsys.readouterr().err
    assert "results.tsv: line 3: expected 5 tab-separated fields, got 3" in err
    assert "Traceback" not in err


def test_scenario_compare_rejects_store_without_rows(tmp_path, capsys):
    results = tmp_path / "results.tsv"
    results.write_text("#format=medlatin.results.v1\n"
                       "run_id\tscenario\tgenre\ttask\taccuracy\n", encoding="utf-8")
    assert run_cli(["scenario", "compare", "--results", str(results)]) == 1
    assert capsys.readouterr().err == f"error: MedlatinError: {results}: no result rows to compare\n"


@pytest.mark.parametrize("argv, config", [
    (["scenario", "plan", "--scenario", "ud_all", "--tasks", "upos,bogus"], None),
    (["scenario", "run", "--scenario", "ud_all", "--tasks", "upos,bogus", "--out", "OUT"], None),
    (["scenario", "plan", "--scenario", "ud_all", "--tasks", "upos,upos"], None),
    (["scenario", "run", "--scenario", "ud_all", "--tasks", "lemma,lemma", "--out", "OUT"], None),
    (["scenario", "plan", "--scenario", "ud_all"], "tasks = upos,bogus\n"),
    (["scenario", "plan", "--scenario", "all", "--tasks", ""], None),
    (["scenario", "run", "--scenario", "all", "--tasks", "", "--out", "OUT"], None),
    (["scenario", "plan", "--scenario", "all"], "tasks =\n"),
    (["eval", "--gold", "GOLD", "--pred", "GOLD", "--fields", "upos,bogus"], None),
    (["eval", "--gold", "GOLD", "--pred", "GOLD", "--fields", "upos,upos"], None),
    (["analyze", "--gold", "GOLD", "--pred", "GOLD", "--report", "genres",
      "--field", "bogus"], None),
], ids=["plan-unknown", "run-unknown", "plan-repeated", "run-repeated", "config-unknown",
        "plan-empty", "run-empty", "config-empty", "eval-unknown", "eval-repeated", "analyze-unknown"])
def test_bad_task_names_are_usage_errors(tmp_path, capsys, argv, config):
    gold = tmp_path / "gold.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\n" + (config or ""), encoding="utf-8")
    paths = {"GOLD": str(gold), "OUT": str(tmp_path / "out")}
    assert run_cli(["--config", str(cfg)] + [paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "'upos', 'ufeats', 'lemma'" in err or "upos, ufeats, lemma" in err
    assert not (tmp_path / "out" / "results.tsv").exists()


@pytest.mark.parametrize("value", ["upos,bogus", ""])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_tasks_usage_error_names_its_source(tmp_path, capsys, source, value):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\n"
                   + (f"tasks = {value}\n" if source == "config" else ""), encoding="utf-8")
    argv = ["--config", str(cfg), "scenario", "plan", "--scenario", "all"]
    assert run_cli(argv + (["--tasks", value] if source == "flag" else [])) == 2
    name = "--tasks" if source == "flag" else f"{cfg}: config key 'tasks'"
    assert capsys.readouterr().err == (f"usage error: {name} {value!r}: tasks are upos, "
                                       "ufeats, lemma, each at most once\n")


def test_analyze_genres_misaligned_pair_names_genre(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_text(MISALIGNED, encoding="utf-8")
    assert run_cli(["analyze", "--gold", str(gold), "--pred", str(gold),
                    "--gold", str(gold), "--pred", str(pred),
                    "--genre", "Annals", "--genre", "Science", "--report", "genres"]) == 1
    err = capsys.readouterr().err
    assert "AlignmentMismatch: genre 'Science': sentence 0: 2 gold vs 1 predicted tokens" in err


def test_analyze_confusions_cli(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_text(PRED, encoding="utf-8")
    assert run_cli(["--machine", "analyze", "--gold", str(gold), "--pred", str(pred),
                    "--report", "confusions"]) == 0
    out = capsys.readouterr().out
    assert "#format=medlatin.analyze.confusions.v1" in out
    assert "initial\tu:v\t1" in out


def test_analyze_confusions_include_sym_cli(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD.replace("VERB", "SYM"), encoding="utf-8")
    pred.write_text(PRED.replace("VERB", "SYM"), encoding="utf-8")
    argv = ["--machine", "analyze", "--gold", str(gold), "--pred", str(pred),
            "--report", "confusions"]
    header = "#format=medlatin.analyze.confusions.v1\nposition\tpattern\tcount\n"
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == header
    assert run_cli(argv + ["--include-sym"]) == 0
    assert capsys.readouterr().out == header + "initial\tu:v\t1\n"


def test_analyze_pos_cli(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text("1\tbonum\tbonus\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    pred.write_text("1\tbonum\tbonus\tADJ\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    assert run_cli(["--machine", "analyze", "--gold", str(gold), "--pred", str(pred),
                    "--report", "pos"]) == 0
    assert "NOUN\tADJ\t1" in capsys.readouterr().out


def test_analyze_genres_cli(tmp_path, capsys):
    g1 = tmp_path / "g1.conllu"
    p1 = tmp_path / "p1.conllu"
    g1.write_text(GOLD, encoding="utf-8")
    p1.write_text(PRED, encoding="utf-8")
    g2 = tmp_path / "g2.conllu"
    p2 = tmp_path / "p2.conllu"
    g2.write_text(GOLD, encoding="utf-8")
    p2.write_text(GOLD, encoding="utf-8")
    assert run_cli(["--machine", "analyze", "--gold", str(g1), "--pred", str(p1),
                    "--gold", str(g2), "--pred", str(p2),
                    "--genre", "Annals", "--genre", "Science",
                    "--report", "genres"]) == 0
    out = capsys.readouterr().out
    assert "Annals\t1\t1.0000" in out
    assert "Science\t0\t0.0000" in out


def same_basename_pairs(tmp_path):
    """--gold/--pred arguments for two pairs whose gold files are both named
    x.conllu: pair a has three lemma and UPOS errors, pair b has one."""
    argv, golds = [], []
    for sub, wrong in (("a", 3), ("b", 1)):
        (tmp_path / sub).mkdir()
        gold, pred = tmp_path / sub / "x.conllu", tmp_path / sub / "pred.conllu"
        gold.write_text("".join(f"{i}\tuideo\tuideo\tVERB\t_\t_\t_\t_\t_\t_\n"
                                for i in range(1, 5)) + "\n", encoding="utf-8")
        pred.write_text("".join(f"{i}\tuideo\t{'video' if i <= wrong else 'uideo'}\t"
                                f"{'NOUN' if i <= wrong else 'VERB'}\t_\t_\t_\t_\t_\t_\n"
                                for i in range(1, 5)) + "\n", encoding="utf-8")
        argv += ["--gold", str(gold), "--pred", str(pred)]
        golds.append(str(gold))
    return argv, golds


@pytest.mark.parametrize("report, row", [("confusions", "initial\tu:v\t4"),
                                         ("pos", "VERB\tNOUN\t4")], ids=["confusions", "pos"])
def test_analyze_counts_every_pair_of_a_repeated_label(tmp_path, capsys, report, row):
    argv, _ = same_basename_pairs(tmp_path)
    assert run_cli(["--machine", "analyze", *argv, "--report", report]) == 0
    assert row in capsys.readouterr().out.splitlines()


def test_analyze_genres_rejects_a_repeated_label(tmp_path, capsys):
    argv, (gold_a, gold_b) = same_basename_pairs(tmp_path)
    assert run_cli(["analyze", *argv, "--report", "genres"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: MedlatinError: genre 'x.conllu' labels two file pairs, "
            f"gold {gold_a} and {gold_b}") in captured.err


def test_config_file_supplies_registry(tmp_path, capsys):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\nseed = 7\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "--machine", "corpus", "validate"]) == 0
    out = capsys.readouterr().out
    assert "Annals" in out and "LLCT" not in out


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\n", encoding="utf-8")
    monkeypatch.setenv("MEDLATIN_CONFIG", str(cfg))
    assert run_cli(["--machine", "corpus", "validate"]) == 0
    assert "ud_alpha" in capsys.readouterr().out


def test_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "--machine", "corpus", "validate",
                    "--registry", MINI_REGISTRY]) == 0
    assert "Annals" in capsys.readouterr().out


def test_unreadable_file_exits_1(capsys):
    assert run_cli(["eval", "--gold", "/nonexistent/a.conllu",
                    "--pred", "/nonexistent/b.conllu"]) == 1


def test_scenario_config_file_drives_plan(tmp_path, capsys):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        f"registry = {MINI_REGISTRY}\n"
        "scenario = ud_all\n"
        "tasks = upos\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "seed = 3\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "scenario", "plan"]) == 0
    out = capsys.readouterr().out
    assert "ud_all__upos" in out
    assert "1 runs, 5 evaluations" in out


def test_scenario_without_kind_is_usage_error(capsys):
    assert run_cli(["scenario", "plan"]) == 2
    assert "scenario" in capsys.readouterr().err


def test_scenario_run_uses_config_output_dir(tmp_path, capsys):
    out_dir = tmp_path / "outdir"
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        f"registry = {MINI_REGISTRY}\n"
        "scenario = ud_all\n"
        "tasks = lemma\n"
        f"output_dir = {out_dir}\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "scenario", "run", "--epochs", "1"]) == 0
    assert (out_dir / "results.tsv").exists()


def stdin_bytes(data: bytes):
    """A stand-in for sys.stdin over data, decoding as under the C locale."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_failed_out_write_keeps_previous_file(tmp_path, capsys, monkeypatch):
    # A lemma with a lone surrogate cannot be written as UTF-8: the write
    # fails part way.
    train_file = tmp_path / "train.conllu"
    train_file.write_text("1\tterram\tterra\tNOUN\t_\t_\t_\t_\t_\t_\n"
                          "2\tportam\tporta\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    model = tmp_path / "lemma.json"
    assert run_cli(["lemmatize", "train", "--in", str(train_file), "--out", str(model)]) == 0
    lemmatize = lemmatizer.lemmatize
    monkeypatch.setattr("medlatin.lemmatizer.lemmatize",
                        lambda model, query: lemmatize(model, query) + "\udcff")
    out = tmp_path / "lemmas.txt"
    out.write_text("previous\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"terram:NOUN\nportam:NOUN\n"))
    assert run_cli(["lemmatize", "run", "--model", str(model), "--out", str(out)]) == 1
    assert "UnicodeEncodeError" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lemma.json", "lemmas.txt", "train.conllu"]


@pytest.mark.parametrize("command", [
    ["tagger", "train", "--task", "upos", "--in", TOY_CORPUS, "--base", "MODEL", "--out", "OUT"],
    ["tagger", "tag", "--model", "MODEL", "--in", TOY_CORPUS, "--out", "OUT"],
    ["lemmatize", "train", "--in", TOY_CORPUS, "--base", "MODEL", "--out", "OUT"],
    ["lemmatize", "run", "--model", "MODEL", "--in", "QUERIES", "--out", "OUT"],
], ids=["tagger-train", "tagger-tag", "lemmatize-train", "lemmatize-run"])
def test_model_with_lone_surrogate_names_the_file(tmp_path, capsys, command):
    kind = command[0]
    model = tmp_path / "model.json"
    train = {"tagger": ["tagger", "train", "--task", "upos", "--epochs", "1"],
             "lemmatize": ["lemmatize", "train"]}[kind]
    assert run_cli(train + ["--in", TOY_CORPUS, "--out", str(model)]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    if kind == "tagger":
        payload["tagset"][0] += "\udcff"  # json.dumps writes it as an escape
    else:
        payload["lexicon"][0][2][0][0] += "\udcff"
    model.write_text(json.dumps(payload), encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("terram:NOUN\n", encoding="utf-8")
    paths = {"MODEL": str(model), "QUERIES": str(queries), "OUT": str(tmp_path / "out")}
    assert run_cli([paths.get(arg, arg) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: MedlatinError: {model}: malformed model "
                   "(a string holds the lone surrogate '\\udcff')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["tagger", "tag", "--model", "MODEL", "--in", TOY_CORPUS, "--out", "OUT"],
    ["lemmatize", "run", "--model", "MODEL", "--in", "QUERIES", "--out", "OUT"],
], ids=["tagger-tag", "lemmatize-run"])
def test_model_nested_too_deeply_names_the_file(tmp_path, capsys, command):
    # Deeper than any recursion limit: json.loads raises RecursionError.
    model_format, key = {"tagger": (tagger.MODEL_FORMAT, "weights"),
                         "lemmatize": (lemmatizer.MODEL_FORMAT, "scripts")}[command[0]]
    model = tmp_path / "model.json"
    depth = 100_000
    model.write_text(f'{{"format": "{model_format}", "{key}": {"[" * depth}{"]" * depth}}}',
                     encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("terram:NOUN\n", encoding="utf-8")
    paths = {"MODEL": str(model), "QUERIES": str(queries), "OUT": str(tmp_path / "out")}
    assert run_cli([paths.get(arg, arg) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err == f"error: MedlatinError: {model}: not a JSON file (nested too deeply)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["normalize", "--in", TOY_CORPUS],
    ["tagger", "tag", "--model", "MODEL", "--in", TOY_CORPUS],
])
def test_out_is_replaced_only_when_complete(tmp_path, capsys, monkeypatch, command):
    model = tmp_path / "tagger.json"
    assert run_cli(["tagger", "train", "--task", "upos", "--in", TOY_CORPUS,
                    "--out", str(model), "--epochs", "1"]) == 0
    out = tmp_path / "out.conllu"
    out.write_text("previous\n", encoding="utf-8")

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")
    monkeypatch.setattr("medlatin.errors.os.replace", interrupted)
    argv = [str(model) if arg == "MODEL" else arg for arg in command]
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.conllu", "tagger.json"]


def test_scenario_run_usage_error_creates_no_out_dir(tmp_path, capsys):
    out = tmp_path / "X"
    assert run_cli(["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
                    "--tasks", "upos,bogus", "--out", str(out)]) == 2
    assert not out.exists()


def _lemma_model_with_int_lemma(tmp_path):
    train_file = tmp_path / "train.conllu"
    train_file.write_text("1\tterram\tterra\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    model = tmp_path / "lemma.json"
    assert run_cli(["lemmatize", "train", "--in", str(train_file), "--out", str(model)]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["lexicon"][0][2][0][0] = 7
    model.write_text(json.dumps(payload), encoding="utf-8")
    return train_file, model


@pytest.mark.parametrize("command", ["train", "run"])
def test_lemmatize_rejects_model_with_non_string_lemma(tmp_path, capsys, monkeypatch, command):
    train_file, model = _lemma_model_with_int_lemma(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("terram:NOUN\n"))
    argv = {"train": ["lemmatize", "train", "--in", str(train_file), "--base", str(model),
                      "--out", str(tmp_path / "out.json")],
            "run": ["lemmatize", "run", "--model", str(model)]}[command]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"{model}: malformed model" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("content, message", [
    (b"1\tuideo\tuideo\tVERB\t_\t_\t_\t_\t_\t_\n\xff\n", "line 2: not UTF-8"),
    (b"1\tuideo\n\n", "line 1: expected 10 tab-separated fields"),
], ids=["not-utf8", "malformed-line"])
def test_eval_input_errors_name_the_file(tmp_path, capsys, content, message):
    gold = tmp_path / "gold.conllu"
    pred = tmp_path / "pred.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    pred.write_bytes(content)
    assert run_cli(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert f"{pred}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    b"[dataset:A]\nkind = ud_treebank\n[dataset:A]\nkind = ud_treebank\n",
    b"kind = ud_treebank\n",
    b"[dataset:A]\nkind = ud_treebank\ntokens = 5\nsentences = 0\navg = 0\n",
    b"[dataset:Annals]\nkind = efontes_genre\n[dataset:annals]\nkind = efontes_genre\n",
], ids=["duplicate-section", "no-section-header", "tokens-without-sentences",
        "names-differ-in-case"])
def test_malformed_registry_config_exits_1_naming_it(tmp_path, capsys, content):
    cfg = tmp_path / "reg.cfg"
    cfg.write_bytes(content)
    assert run_cli(["corpus", "validate", "--registry", str(cfg)]) == 1
    assert f"RegistryConfigError: {cfg}: " in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seed = abc"])
def test_non_integer_config_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\n{line}\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "scenario", "plan", "--scenario", "ud_all"]) == 2
    key, value = line.split(" = ")
    assert f"{cfg}: config key {key!r} must be an integer, not {value!r}" in capsys.readouterr().err


def test_verbose_flag_is_gone(capsys):
    assert run_cli(["-v", "scenario", "plan", "--scenario", "ud_all"]) == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_verbosity_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"registry = {MINI_REGISTRY}\nverbosity = 1\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg), "scenario", "plan", "--scenario", "ud_all"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: MedlatinError: {cfg}: line 2: "
                            "unknown config key 'verbosity'\n")
    assert captured.out == ""


@pytest.mark.parametrize("key, argv", [
    ("registry", ["scenario", "plan", "--scenario", "ud_all"]),
    ("ruleset", ["normalize", "--in", "GOLD"]),
    ("output_dir", ["scenario", "run", "--scenario", "ud_all", "--tasks", "lemma",
                    "--registry", MINI_REGISTRY]),
])
def test_config_path_with_nul_byte_names_file_and_line(tmp_path, capsys, key, argv):
    gold = tmp_path / "gold.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    cfg = tmp_path / "medlatin.cfg"
    cfg.write_text(f"seed = 3\n{key} = {tmp_path / 'a'}\0b\n", encoding="utf-8")
    assert run_cli(["--config", str(cfg)] + [str(gold) if a == "GOLD" else a
                                             for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: MedlatinError: {cfg}: line 2: "
                            f"config key {key!r} holds a NUL byte\n")
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["gold.conllu", "medlatin.cfg"]


NON_NEGATIVE_INT_ARGVS = [
    ["tagger", "train", "--task", "upos", "--in", "missing.conllu", "--out", "out",
     "--epochs"],
    ["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
     "--out", "out", "--epochs"],
    ["analyze", "--gold", "missing.conllu", "--pred", "missing.conllu",
     "--report", "confusions", "--top-k"],
]


@pytest.mark.parametrize("argv", [
    ["corpus", "validate", "--tolerance"],
    ["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
     "--out", "out", "--validation-fraction"],
    *NON_NEGATIVE_INT_ARGVS,
], ids=["tolerance", "validation-fraction", "tagger-epochs", "scenario-epochs",
        "analyze-top-k"])
@pytest.mark.parametrize("value", ["abc", "nan", "Infinity"])
def test_non_finite_decimal_option_is_usage_error(tmp_path, capsys, monkeypatch, argv, value):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv + [value]) == 2
    err = capsys.readouterr().err
    kind = "non-negative integer" if argv[-1] in ("--epochs", "--top-k") else "finite decimal"
    assert f"{argv[-1]}: {value!r} is not a {kind}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", NON_NEGATIVE_INT_ARGVS,
                         ids=["tagger", "scenario", "analyze-top-k"])
def test_negative_epochs_is_usage_error_before_any_data_loads(tmp_path, capsys, monkeypatch,
                                                              argv):
    monkeypatch.chdir(tmp_path)  # the --in and --gold files do not exist
    assert run_cli(argv + ["-1"]) == 2
    assert f"argument {argv[-1]}: '-1' is not a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_under_a_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "tagged.conllu"
    assert run_cli(["normalize", "--in", TOY_CORPUS, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: MedlatinError: {out}: cannot write (No such file or directory)\n"


def test_scenario_run_out_is_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    out = tmp_path / "results"
    out.write_text("not a directory\n", encoding="utf-8")
    monkeypatch.setattr("medlatin.scenarios._train_stages",
                        lambda *args: pytest.fail("trained before checking --out"))
    assert run_cli(["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
                    "--tasks", "upos", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: MedlatinError: {out}: cannot create {out / 'models'} (")
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_validation_fraction_out_of_range_creates_no_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
                    "--validation-fraction", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: OutOfRange: validation_fraction must lie "
                                       "in (0, 1), not 1\n")
    assert not out.exists()


def test_tiny_validation_fraction_keeps_every_sentence_for_training(tmp_path, capsys):
    argv = ["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
            "--tasks", "upos", "--epochs", "1"]
    assert run_cli(argv + ["--validation-fraction", "5e-324", "--out", str(tmp_path / "a")]) == 0
    # 1/5e-324 overflows a float; a k past the 120 UD sentences holds none
    # out, as 0.004 (k = 250) does
    assert run_cli(argv + ["--validation-fraction", "0.004", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("results.tsv", "models/ud_all__upos.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_tolerance_out_of_range_is_a_named_error(capsys):
    assert run_cli(["corpus", "validate", "--tolerance", "0"]) == 1
    assert capsys.readouterr().err == "error: OutOfRange: tolerance must be positive, not 0\n"


def test_tolerance_is_checked_on_a_registry_without_declared_stats(tmp_path, capsys):
    registry = tmp_path / "registry.cfg"
    registry.write_text("[dataset:A]\nkind = efontes_genre\n", encoding="utf-8")
    assert run_cli(["corpus", "validate", "--registry", str(registry), "--tolerance", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: OutOfRange: tolerance must be positive, not 0\n"
    assert captured.out == ""


def _registry_of_mini_files(tmp_path, datasets):
    """A registry file of {name: (kind, file)}; a relative file is one of the
    mini registry's."""
    mini = os.path.dirname(MINI_REGISTRY)
    registry = tmp_path / "registry.cfg"
    registry.write_text("".join(f"[dataset:{name}]\nkind = {kind}\n"
                                f"paths = {os.path.join(mini, file)}\n"
                                for name, (kind, file) in datasets.items()), encoding="utf-8")
    return str(registry)


GENRES = {"Annals": ("efontes_genre", "annals.conllu"),
          "Science": ("efontes_genre", "science.conllu")}


@pytest.mark.parametrize("treebanks, message", [
    ({}, "MissingDataset: scenario 'ud_all' needs UD treebank datasets"),
    ({"ud_alpha": ("ud_treebank", "ud_alpha.conllu"),
      "eFontes": ("ud_treebank", "ud_beta.conllu")},
     "LabelClash: UD treebank 'eFontes' would label its ud_plus_specific runs "
     "'ud_plus_efontes', the label of scenario 'ud_plus_efontes'"),
], ids=["no-ud-treebank", "treebank-named-efontes"])
def test_scenario_run_all_plans_every_kind_before_training(tmp_path, capsys, monkeypatch,
                                                           treebanks, message):
    registry = _registry_of_mini_files(tmp_path, {**GENRES, **treebanks})
    monkeypatch.setattr("medlatin.scenarios._train_stages",
                        lambda *args: pytest.fail("trained before every kind was planned"))
    out = tmp_path / "out"
    assert run_cli(["scenario", "run", "--scenario", "all", "--registry", registry,
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The ud_plus_specific upos run of treebank efontes__lemma and the
# ud_plus_efontes lemma run held out on genre upos would both save
# models/ud_plus_efontes__lemma__upos.json.
REPEATED_RUN_ID = {"Annals": ("efontes_genre", "annals.conllu"),
                   "upos": ("efontes_genre", "science.conllu"),
                   "efontes__lemma": ("ud_treebank", "ud_alpha.conllu")}
REPEATED_RUN_ID_ERROR = (
    "error: LabelClash: run id 'ud_plus_efontes__lemma__upos' is shared by a "
    "'ud_plus_efontes__lemma' run and a 'ud_plus_efontes' run\n")


def test_scenario_run_rejects_two_runs_with_one_id(tmp_path, capsys):
    registry = _registry_of_mini_files(tmp_path, REPEATED_RUN_ID)
    out = tmp_path / "out"
    assert run_cli(["scenario", "run", "--scenario", "all", "--epochs", "1",
                    "--registry", registry, "--out", str(out)]) == 1
    assert capsys.readouterr().err == REPEATED_RUN_ID_ERROR
    assert not out.exists()


def test_scenario_plan_rejects_two_runs_with_one_id(tmp_path, capsys):
    registry = _registry_of_mini_files(tmp_path, REPEATED_RUN_ID)
    assert run_cli(["scenario", "plan", "--scenario", "all", "--registry", registry]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == REPEATED_RUN_ID_ERROR


def test_scenario_run_failure_in_a_later_kind_adds_no_rows(tmp_path, capsys):
    (tmp_path / "broken.conllu").write_text("1\tuideo\n\n", encoding="utf-8")
    registry = _registry_of_mini_files(
        tmp_path, {**GENRES, "Broken": ("ud_treebank", str(tmp_path / "broken.conllu"))})
    out = tmp_path / "out"
    out.mkdir()
    results = out / "results.tsv"
    results.write_text("#format=medlatin.results.v1\nrun_id\tscenario\tgenre\ttask\taccuracy\n"
                       "old\tud_all\tAnnals\tupos\t90.00\n", encoding="utf-8")
    before = results.read_bytes()
    assert run_cli(["scenario", "run", "--scenario", "all", "--registry", registry,
                    "--tasks", "lemma", "--epochs", "1", "--out", str(out)]) == 1
    assert "run 'ud_all__lemma': " in capsys.readouterr().err
    assert results.read_bytes() == before
    # the baseline runs, of the first kind, finished and keep their models
    assert sorted(os.listdir(out / "models")) == ["baseline__lemma__annals.json",
                                                  "baseline__lemma__science.json"]


def test_scenario_run_all_merges_the_results_store_once(tmp_path, capsys, monkeypatch):
    merged = []
    merge = scenarios.merge_results_file
    monkeypatch.setattr("medlatin.scenarios.merge_results_file",
                        lambda path, rows: merged.append(len(rows)) or merge(path, rows))
    out = tmp_path / "out"
    assert run_cli(["--machine", "scenario", "run", "--scenario", "all",
                    "--registry", MINI_REGISTRY, "--tasks", "lemma", "--epochs", "1",
                    "--out", str(out)]) == 0
    # lemma rows: baseline 5, ud_all 5, ud_plus_specific 2 * 5, ud_plus_efontes 5
    assert merged == [25]
    assert len(capsys.readouterr().out.splitlines()) == 2 + 25
    assert len(scenarios.read_results_file(str(out / "results.tsv"))) == 25


def test_scenario_run_drop_unsupported_reaches_the_grid(tmp_path, capsys):
    """--drop-unsupported passes through every dataset a grid run reads: a
    multiword range fails the run without it, and with it the run equals one
    on the registry without that line."""
    ranged = tmp_path / "ranged"
    shutil.copytree(os.path.dirname(MINI_REGISTRY), ranged)
    annals = ranged / "annals.conllu"
    lines = annals.read_text(encoding="utf-8").splitlines(keepends=True)
    annals.write_text("".join(lines[:2] + ["1-2\tducem magnus\t_\t_\t_\t_\t_\t_\t_\t_\n"]
                              + lines[2:]), encoding="utf-8")
    argv = ["scenario", "run", "--scenario", "baseline", "--tasks", "upos", "--epochs", "1"]
    ranged_argv = argv + ["--registry", str(ranged / "registry.cfg")]
    assert run_cli(ranged_argv + ["--out", str(tmp_path / "failed")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: UnsupportedToken: run 'baseline__upos__annals': "
                                   f"{annals}: line 3: unsupported token id '1-2' ")
    assert "pass --drop-unsupported" in captured.err
    assert run_cli(argv + ["--registry", MINI_REGISTRY, "--out", str(tmp_path / "clean")]) == 0
    clean = capsys.readouterr()
    assert run_cli(["--drop-unsupported"] + ranged_argv + ["--out", str(tmp_path / "dropped")]) == 0
    assert capsys.readouterr() == clean
    assert ((tmp_path / "dropped" / "results.tsv").read_bytes()
            == (tmp_path / "clean" / "results.tsv").read_bytes())


def test_scenario_run_unopenable_results_lock_fails_before_training(tmp_path, capsys,
                                                                    monkeypatch):
    out = tmp_path / "out"
    (out / "results.tsv.lock").mkdir(parents=True)
    monkeypatch.setattr("medlatin.scenarios._train_stages",
                        lambda *args: pytest.fail("trained before opening the lock"))
    assert run_cli(["scenario", "run", "--scenario", "ud_all", "--registry", MINI_REGISTRY,
                    "--tasks", "upos", "--out", str(out)]) == 1
    lock = out / "results.tsv.lock"
    assert capsys.readouterr().err == (f"error: MedlatinError: {lock}: "
                                       f"cannot open (Is a directory)\n")
    assert os.listdir(out / "models") == []


@pytest.mark.parametrize("reader", ["config", "ruleset", "query", "results"])
def test_non_utf8_input_names_path_and_line(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"#\n\xff\n")
    gold = tmp_path / "gold.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    model = tmp_path / "lemma.json"
    if reader == "query":
        assert run_cli(["lemmatize", "train", "--in", str(gold), "--out", str(model)]) == 0
    argv = {"config": ["--config", str(bad), "corpus", "validate"],
            "ruleset": ["normalize", "--ruleset", str(bad), "--in", str(gold)],
            "query": ["lemmatize", "run", "--model", str(model), "--in", str(bad)],
            "results": ["scenario", "compare", "--results", str(bad)]}[reader]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: MedlatinError: {bad}: line 2: not UTF-8")
    assert "Traceback" not in err


def test_non_utf8_stdin_query_names_stdin_and_line(tmp_path, capsys, monkeypatch):
    gold = tmp_path / "gold.conllu"
    gold.write_text(GOLD, encoding="utf-8")
    model = tmp_path / "lemma.json"
    assert run_cli(["lemmatize", "train", "--in", str(gold), "--out", str(model)]) == 0
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"res:NOUN\n\xff:X\n"))
    assert run_cli(["lemmatize", "run", "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: MedlatinError: <stdin>: line 2: not UTF-8 (")
    assert captured.out == ""


# Runs the CLI with os.replace patched to end the process, as a kill would,
# on its k-th call: argv is k, then the CLI's arguments.
KILLED_AT_REPLACE = """
import os, sys
from medlatin.cli import run_cli
k, replace, calls = int(sys.argv[1]), os.replace, []
def replace_or_die(src, dst):
    calls.append(dst)
    if len(calls) == k:
        os._exit(137)
    replace(src, dst)
os.replace = replace_or_die
sys.exit(run_cli(sys.argv[2:]))
"""


def _kill_at_replace(k, argv):
    """Run the CLI in a child that KILLED_AT_REPLACE ends at its k-th os.replace."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", KILLED_AT_REPLACE, str(k), *argv],
                           env=env, capture_output=True, timeout=300)
    assert child.returncode == 137, child.stderr


def _files(directory):
    """{path relative to the directory: bytes} of every file under it."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()}


def test_rerun_after_a_killed_write_makes_every_output_whole(tmp_path, capsys):
    argv = ["scenario", "run", "--scenario", "all", "--registry", MINI_REGISTRY]
    clean = tmp_path / "clean"
    assert run_cli(argv + ["--out", str(clean)]) == 0
    expected, expected_out = _files(clean), capsys.readouterr().out
    n_models = len(os.listdir(clean / "models"))
    # Killed writing the first model, the last model and the results merge.
    for k, left in ((1, "models"), (n_models, "models"), (n_models + 1, "")):
        out = tmp_path / f"killed-{k}"
        _kill_at_replace(k, argv + ["--out", str(out)])
        orphans = [name for name in _files(out) if name.endswith(".tmp")]
        assert len(orphans) == 1 and os.path.dirname(orphans[0]) == left
        _assert_outputs_load(out, n_complete=min(k - 1, n_models))
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == expected_out
        assert _files(out) == expected


def _assert_outputs_load(out, n_complete):
    """The n_complete model files under out each load with their loader,
    and the results store is absent or reads as one."""
    models = sorted((out / "models").glob("*.json"))
    assert len(models) == n_complete
    for path in models:
        loader = lemmatizer if "lemma" in path.stem.split("__") else tagger
        loader.load_model(str(path))
    results = out / "results.tsv"
    if results.exists():
        scenarios.read_results_file(str(results))


@pytest.mark.parametrize("command", ["tagger", "lemmatize", "normalize"])
def test_killed_write_of_an_existing_out_keeps_its_earlier_bytes(tmp_path, command):
    """A command killed at the os.replace of its --out leaves that file as
    it was and one temporary file; a re-run writes the clean output."""
    def argv(infile, out):
        return {"tagger": ["tagger", "train", "--task", "upos", "--epochs", "1"],
                "lemmatize": ["lemmatize", "train"],
                "normalize": ["normalize"]}[command] + ["--in", infile, "--out", str(out)]

    earlier, later = (os.path.join(MINI_DIR, f"{name}.conllu") for name in ("annals", "science"))
    out, clean = tmp_path / "out" / "F", tmp_path / "clean"
    out.parent.mkdir()
    assert run_cli(argv(earlier, out)) == 0
    assert run_cli(argv(later, clean)) == 0
    earlier_bytes, clean_bytes = out.read_bytes(), clean.read_bytes()
    assert earlier_bytes != clean_bytes
    _kill_at_replace(1, argv(later, out))
    assert out.read_bytes() == earlier_bytes
    left = sorted(set(os.listdir(out.parent)) - {"F"})
    assert len(left) == 1 and re.fullmatch(r"\.F\.\d+\.tmp", left[0]), left
    assert run_cli(argv(later, out)) == 0
    assert out.read_bytes() == clean_bytes
    assert os.listdir(out.parent) == ["F"]
