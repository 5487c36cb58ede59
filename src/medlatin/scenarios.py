"""Staged-training scenario planning, execution and comparison.

Four scenario kinds cover the useful combinations of generic UD treebank
data and genre-specific Medieval Latin data:

    baseline          leave-one-genre-out cross-validation on the genre
                      subcorpora only; one model per (fold, task)
    ud_all            one model per task trained on every UD treebank,
                      tested on every genre
    ud_plus_specific  stage 1 on all UD treebanks, stage 2 on one specific
                      treebank; tested on every genre
    ud_plus_efontes   stage 1 on all UD treebanks, stage 2 on the
                      cross-validation training genres; one model per
                      (fold, task)

On the canonical registry (5 genres, 5 treebanks, 3 tasks) this yields
15 + 3 + 15 + 15 = 48 training runs, with 75 evaluation outcomes for
ud_plus_specific alone.

Execution is deterministic: per-run seeds derive from the run id, stages
continue from the previous stage's model, and every trained model is
persisted with its provenance.  execute takes the runs of the whole grid
at once and returns one ResultRow per (run, test genre), the one result
record: the results store holds rows keyed by (run_id, genre, task), so
re-runs replace rather than duplicate, and compare reads them.  compare
returns data, a tuple of one ComparisonEntry per (genre, task, scenario)
cell with each (genre, task) column's best and worst marked; the CLI
renders it as a table.  predict_document writes its predictions onto a
copy of the gold document through conllu.relabel.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass
from decimal import Decimal

try:
    import fcntl
except ImportError:  # not POSIX: merges into the results store are not locked
    fcntl = None

from . import lemmatizer as lemmatizer_mod
from . import tagger as tagger_mod
from .conllu import TASKS, Document, concat_documents, relabel
from .errors import MedlatinError, read_text, write_file
from .evaluation import evaluate
from .registry import Registry, load_dataset, make_cv_splits, split_for_validation

SCENARIO_KINDS = ("baseline", "ud_all", "ud_plus_specific", "ud_plus_efontes")

RESULTS_FORMAT = "#format=medlatin.results.v1"
RESULTS_HEADER = "run_id\tscenario\tgenre\ttask\taccuracy"


class MissingDataset(MedlatinError):
    pass


class LabelClash(MedlatinError):
    """A UD treebank whose ud_plus_specific label is another kind's label."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    tasks: tuple[str, ...] = tuple(TASKS)
    ud_name: str | None = None  # restrict ud_plus_specific to one treebank

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not set(self.tasks) <= TASKS.keys():
            raise ValueError(f"unknown task in {self.tasks!r}")


@dataclass(frozen=True)
class TrainingRun:
    run_id: str
    scenario_label: str
    task: str
    stages: tuple[tuple[str, ...], ...]
    test_datasets: tuple[str, ...]


@dataclass(frozen=True)
class RunPlan:
    scenario: Scenario
    runs: tuple[TrainingRun, ...]

    def __post_init__(self):
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):
            raise ValueError("run_ids must be unique within a plan")


@dataclass(frozen=True)
class ResultRow:
    run_id: str
    scenario: str
    genre: str
    task: str
    accuracy: Decimal


@dataclass(frozen=True)
class ComparisonEntry:
    genre: str
    task: str
    scenario: str
    accuracy: Decimal
    is_best: bool
    is_worst: bool


def plan(scenario: Scenario, registry: Registry) -> RunPlan:
    """Expand a scenario over the registry into concrete training runs.

    baseline and ud_plus_efontes run per (task, leave-one-genre-out fold);
    ud_all and ud_plus_specific run per (label, task), tested on every genre.
    Every kind but baseline starts with a stage on all UD treebanks.
    """
    kind, genres, ud_sets = scenario.kind, registry.genres(), tuple(registry.ud_treebanks())
    held_out = kind in ("baseline", "ud_plus_efontes")
    prefix = () if kind == "baseline" else (ud_sets,)
    if held_out and len(genres) < 2:
        raise MissingDataset(f"scenario {kind!r} needs at least 2 genre datasets")
    if prefix and not ud_sets:
        raise MissingDataset(f"scenario {kind!r} needs UD treebank datasets")
    if not held_out and not genres:
        raise MissingDataset(f"scenario {kind!r} needs genre datasets to test on")
    if kind == "ud_plus_specific" and scenario.ud_name not in (None, *ud_sets):
        raise MissingDataset(
            f"scenario {kind!r} needs a registered UD treebank, not {scenario.ud_name!r}")
    selected = ud_sets if scenario.ud_name is None else (scenario.ud_name,)
    clash = [ud for ud in selected if ud.lower() == "efontes"]
    if kind == "ud_plus_specific" and clash:
        raise LabelClash(f"UD treebank {clash[0]!r} would label its ud_plus_specific runs "
                         f"'ud_plus_efontes', the label of scenario 'ud_plus_efontes'")
    if held_out:
        folds = make_cv_splits(genres)
        runs = [TrainingRun(f"{kind}__{task}__{fold.test_dataset.lower()}", kind, task,
                            prefix + (fold.train_datasets,), (fold.test_dataset,))
                for task in scenario.tasks for fold in folds]
    else:
        models = ([("ud_all", prefix)] if kind == "ud_all" else
                  [(f"ud_plus_{ud.lower()}", prefix + ((ud,),)) for ud in selected])
        runs = [TrainingRun(f"{label}__{task}", label, task, stages, tuple(genres))
                for label, stages in models for task in scenario.tasks]
    return RunPlan(scenario, tuple(runs))


def derive_seed(base_seed: int, run_id: str, stage_index: int) -> int:
    """Stable per-(run, stage) seed so partial re-execution reproduces cells."""
    return zlib.crc32(f"{base_seed}:{run_id}:{stage_index}".encode("utf-8"))


def materialize_corpus(registry: Registry, dataset_names: tuple[str, ...],
                       drop_unsupported: bool = False) -> Document:
    return concat_documents([load_dataset(registry, name, drop_unsupported)
                             for name in dataset_names], "+".join(dataset_names))


def predict_document(model, task: str, gold: Document) -> Document:
    """Copy of the gold document with the task's label replaced by predictions."""
    if TASKS[task].tagger:
        labels = (tagger_mod.tag(model, sentence) for sentence in gold.sentences)
    else:
        labels = ([lemmatizer_mod.lemmatize(model, lemmatizer_mod.LemmaQuery(tok.form, tok.upos))
                   for tok in sentence.tokens] for sentence in gold.sentences)
    return relabel(gold, task, labels)


def _train_stages(run: TrainingRun, registry: Registry, epochs: int,
                  validation_fraction, base_seed: int, drop_unsupported: bool):
    model = None
    for stage_index, stage in enumerate(run.stages):
        corpus = materialize_corpus(registry, stage, drop_unsupported)
        train_sents, _reserved = split_for_validation(corpus.sentences, validation_fraction)
        train_doc = Document(train_sents, corpus.source_name)
        if TASKS[run.task].tagger:
            model = tagger_mod.train(
                train_doc, run.task, epochs=epochs, base=model,
                seed=derive_seed(base_seed, run.run_id, stage_index), datasets=stage)
        else:
            model = lemmatizer_mod.train_lemmatizer(train_doc, base=model, datasets=stage)
    return model


def execute(runs: list[TrainingRun], registry: Registry, output_dir: str,
            epochs: int = 5, validation_fraction: Decimal | str | float = "0.1",
            base_seed: int = 0, drop_unsupported: bool = False) -> list[ResultRow]:
    """Train each run, evaluate it on its test sets and save its model, one
    run at a time; then merge every run's rows into the results store.

    The validation fraction, the models directory and the results store's
    lock file are checked before the first run trains.  If a run fails, the
    models of the runs before it stay saved and the results store is left
    as it was.  Returns one row per (run, test set), in run order.  Two
    executions with the same arguments return equal rows and write
    byte-identical files.
    """
    split_for_validation((), validation_fraction)  # raises for a fraction out of range
    models_dir = os.path.join(output_dir, "models")
    results_path = os.path.join(output_dir, "results.tsv")
    try:
        os.makedirs(models_dir, exist_ok=True)
    except OSError as exc:
        raise MedlatinError(f"{output_dir}: cannot create {models_dir} "
                            f"({exc.strerror or exc})") from exc
    _open_lock(results_path).close()
    rows: list[ResultRow] = []
    for run in runs:
        try:
            model = _train_stages(run, registry, epochs, validation_fraction,
                                  base_seed, drop_unsupported)
            for test_name in run.test_datasets:
                gold = load_dataset(registry, test_name, drop_unsupported)
                predicted = predict_document(model, run.task, gold)
                report = evaluate(gold, predicted, fields=(run.task,))
                rows.append(ResultRow(run.run_id, run.scenario_label, test_name,
                                      run.task, report.accuracy[run.task]))
        except MedlatinError as exc:
            exc.args = (f"run {run.run_id!r}: {exc}",)
            raise
        path = os.path.join(models_dir, f"{run.run_id}.json")
        (tagger_mod if TASKS[run.task].tagger else lemmatizer_mod).save_model(model, path)
    merge_results_file(results_path, rows)
    return rows


def write_results_file(path: str, rows: list[ResultRow]) -> None:
    ordered = sorted(rows, key=lambda r: (r.scenario, r.run_id, r.genre, r.task))
    lines = [RESULTS_FORMAT, RESULTS_HEADER]
    lines += [f"{r.run_id}\t{r.scenario}\t{r.genre}\t{r.task}\t{r.accuracy}" for r in ordered]
    write_file(path, [line + "\n" for line in lines])


_ACCURACY = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def read_results_file(path: str) -> list[ResultRow]:
    """Read a results store; a malformed row raises MedlatinError naming
    the path and line."""
    rows = []
    lines = read_text(path).split("\n")
    if lines[0] != RESULTS_FORMAT:
        raise MedlatinError(f"{path}: not a {RESULTS_FORMAT} results file")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line or line == RESULTS_HEADER:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise MedlatinError(f"{path}: line {line_no}: expected 5 tab-separated fields, "
                                f"got {len(fields)}")
        run_id, scenario, genre, task, accuracy = fields
        if not _ACCURACY.fullmatch(accuracy):
            raise MedlatinError(f"{path}: line {line_no}: accuracy {accuracy!r} is not a decimal")
        rows.append(ResultRow(run_id, scenario, genre, task, Decimal(accuracy)))
    return rows


def _open_lock(path: str):
    """The results store's lock file, path + ".lock", opened for appending;
    an OSError becomes a MedlatinError naming the lock file."""
    try:
        return open(path + ".lock", "a")
    except OSError as exc:
        raise MedlatinError(f"{path}.lock: cannot open ({exc.strerror or exc})") from exc


def merge_results_file(path: str, new_rows: list[ResultRow]) -> None:
    """Rewrite the results store with rows keyed by (run_id, genre, task);
    incoming rows replace existing ones with the same key.

    From the read to the rewrite the merge holds an exclusive flock on the
    sidecar file path + ".lock", so merges into one store from concurrent
    processes lose no rows.  The lock file is never deleted: a writer that
    recreated it would lock a different file than one still waiting.
    """
    with _open_lock(path) as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        merged: dict[tuple[str, str, str], ResultRow] = {}
        if os.path.exists(path):
            for row in read_results_file(path):
                merged[(row.run_id, row.genre, row.task)] = row
        for row in new_rows:
            merged[(row.run_id, row.genre, row.task)] = row
        write_results_file(path, list(merged.values()))


def compare(rows: list[ResultRow]) -> tuple[ComparisonEntry, ...]:
    """One entry per (genre, task, scenario) cell, sorted in that order,
    marking each (genre, task) column's best and worst scenario entries.

    Ties mark every tied entry; a single-entry column is both best and worst.
    Of rows with the same (scenario, genre, task), the last one counts.
    """
    if not rows:
        raise ValueError("no result rows to compare")
    columns: dict[tuple[str, str], dict[str, Decimal]] = {}
    for row in rows:
        columns.setdefault((row.genre, row.task), {})[row.scenario] = row.accuracy
    entries = []
    for (genre, task) in sorted(columns):
        cells = columns[(genre, task)]
        best_val = max(cells.values())
        worst_val = min(cells.values())
        for scenario in sorted(cells):
            accuracy = cells[scenario]
            entries.append(ComparisonEntry(
                genre, task, scenario, accuracy,
                is_best=accuracy == best_val,
                is_worst=accuracy == worst_val,
            ))
    return tuple(entries)
