"""Command-line entry point: one binary, one subcommand per pipeline stage.

    corpus stats|validate     corpus statistics; declared-stats consistency
    normalize                 rewrite lemmas toward gold orthography
    tagger train|tag          UPOS / UFeats tagging
    lemmatize train|run       (form, UPOS) -> lemma
    scenario plan|run|compare staged training scenarios over a registry
    eval                      per-field accuracy of predicted vs gold
    analyze                   confusion mining, POS confusion, genre errors

Exit codes: 0 success, 1 domain error (message names the error case),
2 usage error.  A config file may supply defaults (key = value lines with
keys registry, output_dir, seed, ruleset, verbosity, scenario, tasks, ud);
pass it with --config or the MEDLATIN_CONFIG environment variable.  Flags
always win over config.  Every tabular command accepts --machine for
tab-separated output behind a versioned header line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from decimal import Decimal, InvalidOperation

from . import __version__
from . import analysis as analysis_mod
from . import lemmatizer as lemmatizer_mod
from . import normalize as normalize_mod
from . import scenarios as scenarios_mod
from . import tagger as tagger_mod
from .conllu import TASKS, Document, concat_documents, read_conllu, relabel, serialize
from .errors import MedlatinError, decode_text, read_text, write_file
from .evaluation import AlignmentMismatch, evaluate, evaluate_by_genre
from .registry import (Registry, compute_stats, load_dataset, load_registry,
                       reference_registry, validate_registry)

log = logging.getLogger("medlatin")

CONFIG_ENV_VAR = "MEDLATIN_CONFIG"
CONFIG_KEYS = ("registry", "output_dir", "seed", "ruleset", "verbosity",
               "scenario", "tasks", "ud")


class UsageError(Exception):
    """Bad command-line usage that argparse cannot catch itself (exit code 2)."""


def load_config(path: str) -> dict[str, str]:
    config = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MedlatinError(f"{path}: line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise MedlatinError(f"{path}: line {line_no}: unknown config key {key!r}")
        config[key] = value
    return config


def _finite_decimal(text: str) -> Decimal:
    """argparse type of --tolerance and --validation-fraction: any finite
    decimal; the commands check the range themselves."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite decimal")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of --epochs and --top-k."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_file(path, [text])


def _emit_table(args, command: str, header: list[str], rows: list[list[str]]) -> None:
    """The one table writer.  --machine: a versioned header line, then
    tab-separated rows; otherwise columns two spaces apart, each line
    right-stripped."""
    table = [header] + rows
    if args.machine:
        lines = [f"#format=medlatin.{command}.v1"] + ["\t".join(row) for row in table]
    else:
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in table]
    sys.stdout.write("\n".join(lines) + "\n")


def _task_names(value: str, option: str) -> tuple[str, ...]:
    names = tuple(value.split(","))
    if not set(names) <= TASKS.keys() or len(set(names)) != len(names):
        raise UsageError(f"{option} {value!r}: tasks are {', '.join(TASKS)}, each at most once")
    return names


def _registry_from_args(args) -> Registry:
    if args.registry:
        return load_registry(args.registry)
    return reference_registry()


# ---------------------------------------------------------------- corpus

def cmd_corpus_stats(args) -> int:
    rows = []
    if args.infile:
        doc = read_conllu(args.infile, args.drop_unsupported)
        stats = compute_stats(doc)
        rows.append([args.infile, str(stats.tokens), str(stats.sentences),
                     str(stats.avg_tokens_per_sentence)])
    else:
        registry = _registry_from_args(args)
        names = args.dataset or [d.name for d in registry if d.paths]
        for name in names:
            doc = load_dataset(registry, name, args.drop_unsupported)
            stats = compute_stats(doc)
            rows.append([name, str(stats.tokens), str(stats.sentences),
                         str(stats.avg_tokens_per_sentence)])
    _emit_table(args, "corpus.stats", ["dataset", "tokens", "sentences", "avg"], rows)
    return 0


def cmd_corpus_validate(args) -> int:
    registry = _registry_from_args(args)
    verdicts = validate_registry(registry, args.tolerance)
    rows = []
    for name, verdict in verdicts.items():
        declared = registry.get(name).declared_stats
        rows.append([
            name, str(declared.tokens), str(declared.sentences),
            str(declared.avg_tokens_per_sentence),
            "consistent" if verdict.consistent else "INCONSISTENT",
            str(verdict.expected_avg),
        ])
    _emit_table(args, "corpus.validate",
                ["dataset", "tokens", "sentences", "declared_avg", "verdict", "expected_avg"],
                rows)
    return 0


def cmd_corpus_check(args) -> int:
    """Read the file; a parse error names its path and line (exit code 1).
    A file that parses prints the header of an empty table, the stable
    corpus.check format."""
    read_conllu(args.infile, args.drop_unsupported)
    _emit_table(args, "corpus.check", ["sentence", "token", "rule"], [])
    return 0


# ------------------------------------------------------------- normalize

def cmd_normalize(args) -> int:
    if args.ruleset:
        ruleset = normalize_mod.parse_ruleset(read_text(args.ruleset), name=args.ruleset)
    else:
        ruleset = normalize_mod.default_gold_ruleset()
    doc = read_conllu(args.infile, args.drop_unsupported)
    lemmas = ([tok.lemma if tok.lemma == "_" else normalize_mod.normalize_word(ruleset, tok.lemma)
               for tok in sentence.tokens] for sentence in doc.sentences)
    _write_text(args.out, serialize(relabel(doc, "lemma", lemmas)))
    return 0


# ---------------------------------------------------------------- tagger

def _read_corpus(paths: list[str], drop_unsupported: bool) -> Document:
    return concat_documents([read_conllu(p, drop_unsupported) for p in paths], "+".join(paths))


def cmd_tagger_train(args) -> int:
    corpus = _read_corpus(args.infile, args.drop_unsupported)
    base = tagger_mod.load_model(args.base) if args.base else None
    model = tagger_mod.train(corpus, args.task, epochs=args.epochs, base=base,
                             seed=args.seed, datasets=tuple(args.infile))
    tagger_mod.save_model(model, args.out)
    log.info("trained %s tagger on %d sentences -> %s",
             args.task, len(corpus.sentences), args.out)
    return 0


def cmd_tagger_tag(args) -> int:
    model = tagger_mod.load_model(args.model)
    doc = read_conllu(args.infile, args.drop_unsupported)
    predicted = scenarios_mod.predict_document(model, model.task, doc)
    _write_text(args.out, serialize(predicted))
    return 0


# ------------------------------------------------------------- lemmatize

def cmd_lemmatize_train(args) -> int:
    corpus = _read_corpus(args.infile, args.drop_unsupported)
    base = lemmatizer_mod.load_model(args.base) if args.base else None
    model = lemmatizer_mod.train_lemmatizer(corpus, base=base, datasets=tuple(args.infile))
    lemmatizer_mod.save_model(model, args.out)
    log.info("trained lemmatizer on %d sentences -> %s", len(corpus.sentences), args.out)
    return 0


def cmd_lemmatize_run(args) -> int:
    model = lemmatizer_mod.load_model(args.model)
    name = args.infile or "<stdin>"
    text = read_text(args.infile) if args.infile else decode_text(sys.stdin.buffer.read(), name)
    out_lines = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            query = lemmatizer_mod.parse_wire_query(line)
        except MedlatinError as exc:
            exc.args = (f"{name}: line {line_no}: {exc}",)
            raise
        out_lines.append(lemmatizer_mod.lemmatize(model, query))
    _write_text(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


# -------------------------------------------------------------- scenario

def _runs_from_args(args, registry: Registry) -> list[scenarios_mod.TrainingRun]:
    """The runs of every selected kind, all planned before any run trains."""
    if args.scenario is None:
        raise UsageError("a scenario kind is required (--scenario or config key 'scenario')")
    if args.scenario != "all" and args.scenario not in scenarios_mod.SCENARIO_KINDS:
        raise UsageError(f"unknown scenario {args.scenario!r}")
    tasks = _task_names(args.tasks, "--tasks") if args.tasks else tuple(TASKS)
    kinds = list(scenarios_mod.SCENARIO_KINDS) if args.scenario == "all" else [args.scenario]
    return [run for kind in kinds for run in scenarios_mod.plan(scenarios_mod.Scenario(
        kind, tasks, args.ud if kind == "ud_plus_specific" else None), registry).runs]


def cmd_scenario_plan(args) -> int:
    runs = _runs_from_args(args, _registry_from_args(args))
    rows = [[run.run_id, run.scenario_label, run.task,
             " -> ".join("+".join(stage) for stage in run.stages), ",".join(run.test_datasets)]
            for run in runs]
    _emit_table(args, "scenario.plan",
                ["run_id", "scenario", "task", "stages", "tests"], rows)
    if not args.machine:
        evaluations = sum(len(run.test_datasets) for run in runs)
        sys.stdout.write(f"{len(runs)} runs, {evaluations} evaluations\n")
    return 0


def cmd_scenario_run(args) -> int:
    registry = _registry_from_args(args)
    out_dir = args.out or args.output_dir
    if out_dir is None:
        raise MedlatinError("scenario run needs an output directory (--out or config output_dir)")
    runs = _runs_from_args(args, registry)
    log.info("executing %d runs", len(runs))
    results = scenarios_mod.execute(
        runs, registry, out_dir, epochs=args.epochs,
        validation_fraction=args.validation_fraction, base_seed=args.seed,
        drop_unsupported=args.drop_unsupported)
    rows = [[r.scenario, r.genre, r.task, str(r.accuracy)]
            for r in sorted(results, key=lambda r: (r.scenario, r.genre, r.task))]
    _emit_table(args, "scenario.run", ["scenario", "genre", "task", "accuracy"], rows)
    return 0


def cmd_scenario_compare(args) -> int:
    rows = scenarios_mod.read_results_file(args.results)
    if not rows:
        raise MedlatinError(f"{args.results}: no result rows to compare")
    entries = scenarios_mod.compare(rows)
    if args.machine:
        header = ["scenario", "genre", "task", "accuracy", "best", "worst"]
        table = [[e.scenario, e.genre, e.task, str(e.accuracy),
                  "best" if e.is_best else "", "worst" if e.is_worst else ""]
                 for e in entries]
    else:  # scenarios down, (genre, task) across; '*' marks a column's best, '!' its worst
        columns = sorted({(e.genre, e.task) for e in entries})
        cells = {(e.scenario, e.genre, e.task):
                 f"{e.accuracy}{'*' if e.is_best else '!' if e.is_worst else ''}"
                 for e in entries}
        header = ["scenario"] + [f"{genre}/{task}" for genre, task in columns]
        table = [[scenario] + [cells.get((scenario, *column), "-") for column in columns]
                 for scenario in sorted({e.scenario for e in entries})]
    _emit_table(args, "scenario.compare", header, table)
    return 0


# ------------------------------------------------------------------ eval

def _naming_pair(func, gold: Document, predicted: Document, *args):
    """func(gold, predicted, *args); an AlignmentMismatch names the two files."""
    try:
        return func(gold, predicted, *args)
    except AlignmentMismatch as exc:
        exc.args = (f"{gold.source_name} vs {predicted.source_name}: {exc}",)
        raise


def cmd_eval(args) -> int:
    fields = _task_names(args.fields, "--fields")
    gold = read_conllu(args.gold, args.drop_unsupported)
    predicted = read_conllu(args.pred, args.drop_unsupported)
    report = _naming_pair(evaluate, gold, predicted, fields)
    rows = [[f, str(report.accuracy[f]), str(report.matches[f]), str(report.token_count)]
            for f in fields]
    _emit_table(args, "eval", ["field", "accuracy", "matches", "tokens"], rows)
    return 0


# --------------------------------------------------------------- analyze

def _genre_pairs(args) -> list[tuple[str, Document, Document]]:
    """(label, gold, predicted) per file pair, in argument order; a label is
    the pair's --genre label, or else its gold file's basename."""
    golds, preds = args.gold, args.pred
    if len(golds) != len(preds):
        raise MedlatinError("need as many --gold as --pred files")
    genres = args.genre or [os.path.basename(g) for g in golds]
    if len(genres) != len(golds):
        raise MedlatinError("need as many --genre labels as file pairs")
    return [(label, read_conllu(g, args.drop_unsupported), read_conllu(p, args.drop_unsupported))
            for label, g, p in zip(genres, golds, preds)]


def cmd_analyze(args) -> int:
    pairs = _genre_pairs(args)
    if args.report == "confusions":
        errors = []
        for _, gold, pred in pairs:
            errors.extend(_naming_pair(analysis_mod.lemma_error_pairs, gold, pred,
                                       args.include_sym))
        patterns = analysis_mod.mine_confusions(errors)
        by_position: dict[str, int] = {}
        rows = []
        for cp in patterns:
            rank = by_position.get(cp.position, 0) + 1
            by_position[cp.position] = rank
            if rank <= args.top_k:
                rows.append([cp.position, cp.label(), str(cp.count)])
        _emit_table(args, "analyze.confusions", ["position", "pattern", "count"], rows)
    elif args.report == "pos":
        matrix: dict = {}
        for _, gold, pred in pairs:
            for key, count in _naming_pair(analysis_mod.pos_confusions, gold, pred).items():
                matrix[key] = matrix.get(key, 0) + count
        ordered = sorted(matrix.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [[g, p, str(c)] for (g, p), c in ordered]
        _emit_table(args, "analyze.pos", ["gold_upos", "pred_upos", "count"], rows)
    else:  # genres
        by_genre: dict[str, tuple[Document, Document]] = {}
        for label, gold, pred in pairs:
            if label in by_genre:
                raise MedlatinError(f"genre {label!r} labels two file pairs, gold "
                                    f"{by_genre[label][0].source_name} and {gold.source_name} "
                                    "(give each pair its own --genre label)")
            by_genre[label] = (gold, pred)
        reports = evaluate_by_genre(by_genre, (args.field,))
        dist = analysis_mod.genre_distribution(reports, args.field)
        rows = []
        for genre in dist.counts:
            share = "-" if dist.shares is None else f"{dist.shares[genre]:.4f}"
            rows.append([genre, str(dist.counts[genre]), share])
        _emit_table(args, "analyze.genres", ["genre", "errors", "share"], rows)
    return 0


# ------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medlatin",
        description="Training, evaluation and error analysis for Medieval Latin "
                    "lemmatization and morphosyntactic tagging.")
    parser.add_argument("--version", action="version", version=f"medlatin {__version__}")
    parser.add_argument("--config", help="config file (key = value); "
                        f"or set ${CONFIG_ENV_VAR}")
    parser.add_argument("--machine", action="store_true",
                        help="tab-separated output with a versioned header line")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--drop-unsupported", action="store_true",
                        help="drop multiword-range and empty-node lines instead of failing")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="corpus statistics and validation")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    p = corpus_sub.add_parser("stats", help="token/sentence counts and averages")
    p.add_argument("--registry")
    p.add_argument("--dataset", action="append")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=cmd_corpus_stats)
    p = corpus_sub.add_parser("validate", help="check declared statistics for consistency")
    p.add_argument("--registry")
    p.add_argument("--tolerance", type=_finite_decimal, default="0.05")
    p.set_defaults(func=cmd_corpus_validate)
    p = corpus_sub.add_parser("check", help="parse a CoNLL-U file, naming the line of an error")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_corpus_check)

    p = sub.add_parser("normalize", help="rewrite lemmas toward gold orthography")
    p.add_argument("--ruleset", help="ruleset file (default: bundled gold ruleset)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_normalize)

    tagger = sub.add_parser("tagger", help="UPOS / UFeats tagging")
    tagger_sub = tagger.add_subparsers(dest="subcommand", required=True)
    p = tagger_sub.add_parser("train")
    p.add_argument("--task", choices=[t for t in TASKS if TASKS[t].tagger], required=True)
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_non_negative_int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base", help="continue training from this model")
    p.set_defaults(func=cmd_tagger_train)
    p = tagger_sub.add_parser("tag")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tagger_tag)

    lemmatize = sub.add_parser("lemmatize", help="(form, UPOS) -> lemma")
    lemmatize_sub = lemmatize.add_subparsers(dest="subcommand", required=True)
    p = lemmatize_sub.add_parser("train")
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base", help="merge counts on top of this model")
    p.set_defaults(func=cmd_lemmatize_train)
    p = lemmatize_sub.add_parser("run", help="read form:UPOS lines, emit one lemma per line")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", help="query file (default: stdin)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemmatize_run)

    scenario = sub.add_parser("scenario", help="staged training scenarios")
    scenario_sub = scenario.add_subparsers(dest="subcommand", required=True)
    for name, func in (("plan", cmd_scenario_plan), ("run", cmd_scenario_run)):
        p = scenario_sub.add_parser(name)
        p.add_argument("--scenario",
                       choices=list(scenarios_mod.SCENARIO_KINDS) + ["all"])
        p.add_argument("--registry")
        p.add_argument("--tasks", help=f"comma-separated subset of {','.join(TASKS)}")
        p.add_argument("--ud", help="restrict ud_plus_specific to one treebank")
        if name == "run":
            p.add_argument("--out", help="output directory (models/ and results.tsv)")
            p.add_argument("--epochs", type=_non_negative_int, default=5)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--validation-fraction", type=_finite_decimal, default="0.1")
        p.set_defaults(func=func)
    p = scenario_sub.add_parser("compare")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_scenario_compare)

    p = sub.add_parser("eval", help="accuracy of predicted vs gold CoNLL-U")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--fields", default=",".join(TASKS))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="error analysis reports")
    p.add_argument("--gold", action="append", required=True)
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--genre", action="append",
                   help="label for each --gold/--pred pair (genres report)")
    p.add_argument("--report", choices=["confusions", "pos", "genres"], required=True)
    p.add_argument("--field", choices=list(TASKS), default="lemma",
                   help="field for the genres report (default lemma)")
    p.add_argument("--top-k", type=_non_negative_int, default=5,
                   help="patterns per position in the confusions report")
    p.add_argument("--include-sym", action="store_true",
                   help="keep SYM-token errors in confusion mining")
    p.set_defaults(func=cmd_analyze)

    return parser


def _apply_config(args) -> None:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config = load_config(path) if path else {}
    args.output_dir = config.get("output_dir")
    for key in ("registry", "ruleset", "scenario", "tasks", "ud"):
        if getattr(args, key, None) is None and key in config:
            setattr(args, key, config[key])
    if getattr(args, "seed", None) is None:
        args.seed = _config_int(config, "seed", path) if "seed" in config else 0
    if args.verbose == 0 and "verbosity" in config:
        args.verbose = _config_int(config, "verbosity", path)


def _config_int(config: dict[str, str], key: str, path: str) -> int:
    try:
        return int(config[key])
    except ValueError:
        raise UsageError(f"{path}: config key {key!r} must be an integer, "
                         f"not {config[key]!r}") from None


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        level = logging.WARNING
        if args.verbose == 1:
            level = logging.INFO
        elif args.verbose >= 2:
            level = logging.DEBUG
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (MedlatinError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
