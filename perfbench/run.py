"""medlatin benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Workloads (all closed loops: one client, one process, one request in
flight; each iteration is a fresh child process running perfbench/worker.py):

  mini-grid       ``scenario run --scenario all`` with the CLI's default
                  options on tests/fixtures/mini/registry.cfg (39 training
                  runs, 7 files parsed 249 times).
  synth-grid      the same command on a generated registry (perfbench/synth.py)
                  with an open Zipfian vocabulary and over a hundred UFeats labels.
  synth-annotate  untimed: train UPOS, UFeats and lemma models on a generated
                  registry.  Timed: load them, tag and lemmatize a held-out
                  corpus one sentence at a time, normalize, evaluate, mine
                  confusions, serialize.

After each grid the iteration also annotates a generated held-out corpus
(in the mini fixtures' vocabulary on mini-grid) with the grid's
ud_all models through the read pipeline synth-annotate times, so every
workload has sentence latencies and accuracies.  Every annotation corpus
has 1000 sentences, so each iteration's p99 sentence latency has ten
samples beyond it.

The timed metrics (setup_s, wall_ref_s, tok_per_ref_s, sent_p50_ref_ms,
sent_p99_ref_ms) are given at a fixed reference host speed: gauge.py
probes the shared host's speed beside each timed stretch and rescales the
stretch by it, because the host's own drift is larger than the bounds.
The same figures at the host's own speed (setup_s, wall_s, tok_per_s,
sent_p50_ms, sent_p99_ms) are printed and recorded, not gated.

Every end-to-end metric is printed by name, unit and sample count; the last
line of stdout is one JSON object with correct, attempted, failed and the
metrics named in BENCHMARK.json.  With --trace 1 the iterations alternate
untraced and traced (perfbench/tracing.py) and the per-layer metrics are
printed instead.  A fuller record (samples, environment, interaction map)
goes to .perfbench-work/results/.

Correctness, counted into ``failed``: at seed 0 each grid run's results row
and model file, the annotation output and (synth-annotate) the lemma
cascade class counts must match perfbench/digests.json; at any other seed
grids must be byte-identical to the previous grid and the annotation output
and class counts equal to the first iteration's; accuracy counted here with
integers and Decimal must equal medlatin.evaluation's; traced counts must
equal the workload's known sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
WORK = os.path.join(ROOT, ".perfbench-work")
MINI_REGISTRY = os.path.join(ROOT, "tests", "fixtures", "mini", "registry.cfg")

from gauge import REFERENCE_PROBE_S, normalized  # noqa: E402

# Generated input sizes in sentences, fixed by run time at the parent commit.
# Sentence lengths follow the reference registry's declared averages
# (synth.py): synth-grid's registry holds 622 tokens, synth-annotate's 3711,
# and every held-out corpus 23603.
SYNTH_SIZES = {
    "synth-grid": {"genre_sentences": 3, "ud_sentences": 6, "heldout_sentences": 1000},
    "synth-annotate": {"genre_sentences": 20, "ud_sentences": 30, "heldout_sentences": 1000},
}
MINI_HELDOUT_SENTENCES = 1000
CLI_EPOCHS = 5           # scenario run defaults
VALIDATION_EVERY = 10    # split_for_validation keeps out every 10th sentence at 0.1
DEFAULT_SEED = 0
MIN_ITERATIONS = 3
SETUP_SAMPLES = 11       # extra set-up-only children per run, for a steady setup_s
HARD_DEADLINE_S = 170.0
LEMMA_CLASSES = ("lexicon", "suffix_upos", "pooled")


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sentence_sizes(path: str) -> list[int]:
    """Token count of each sentence, read without the program's parser."""
    sizes, n = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line[:1].isdigit():
                n += 1
            elif line.strip() == "" and n:
                sizes.append(n)
                n = 0
    if n:
        sizes.append(n)
    return sizes


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, ROOT).encode() + b"\0")
            src.update(sha256_file(path).encode())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "loadavg_start": os.getloadavg()}


# ------------------------------------------------------------------ inputs

def grid_expectations(registry_path: str, annotate_paths: list[str]) -> dict[str, int]:
    """Calls and token counts one grid iteration must show in a traced run,
    derived from the plan and the input files, not from the trace."""
    from medlatin import registry as registry_mod, scenarios
    reg = registry_mod.load_registry(registry_path)
    files = {d.name: list(d.paths) for d in reg}
    sizes = {name: [n for p in paths for n in sentence_sizes(p)] for name, paths in files.items()}
    e = dict.fromkeys(("conllu.parse_conllu.calls", "conllu.parse_conllu.tokens",
                       "registry.load_dataset.calls", "tagger.train.calls",
                       "tagger.train.token_epochs", "tagger.tag.tokens",
                       "lemmatizer.train_lemmatizer.tokens", "lemmatizer.lemmatize.calls",
                       "evaluation.evaluate.tokens"), 0)

    def load(name: str) -> int:
        e["registry.load_dataset.calls"] += 1
        e["conllu.parse_conllu.calls"] += len(files[name])
        e["conllu.parse_conllu.tokens"] += sum(sizes[name])
        return sum(sizes[name])

    for kind in scenarios.SCENARIO_KINDS:
        for run in scenarios.plan(scenarios.Scenario(kind), reg).runs:
            for stage in run.stages:
                for name in stage:
                    load(name)
                sents = [n for name in stage for n in sizes[name]]
                train = sum(n for i, n in enumerate(sents) if (i + 1) % VALIDATION_EVERY)
                if run.task == "lemma":
                    e["lemmatizer.train_lemmatizer.tokens"] += train
                else:
                    e["tagger.train.calls"] += 1
                    e["tagger.train.token_epochs"] += train * CLI_EPOCHS
            for name in run.test_datasets:
                tokens = load(name)
                e["evaluation.evaluate.tokens"] += tokens
                key = "lemmatizer.lemmatize.calls" if run.task == "lemma" else "tagger.tag.tokens"
                e[key] += tokens
    e["grid_work_tokens"] = (e["tagger.train.token_epochs"] + e["tagger.tag.tokens"]
                             + e["lemmatizer.lemmatize.calls"])
    e["training_runs"] = sum(len(scenarios.plan(scenarios.Scenario(k), reg).runs)
                             for k in scenarios.SCENARIO_KINDS)
    add_annotation(e, annotate_paths)
    return e


def add_annotation(e: dict, annotate_paths: list[str]) -> None:
    sizes = [n for p in annotate_paths for n in sentence_sizes(p)]
    tokens = sum(sizes)
    for key, value in (("conllu.parse_conllu.calls", len(annotate_paths)),
                       ("conllu.parse_conllu.tokens", tokens),
                       ("tagger.tag.tokens", 2 * tokens),
                       ("lemmatizer.lemmatize.calls", tokens),
                       ("evaluation.evaluate.tokens", tokens)):
        e[key] = e.get(key, 0) + value
    e["tagger.extract_features.calls"] = (e.get("tagger.train.token_epochs", 0)
                                          + e["tagger.tag.tokens"])
    e["annotated_tokens"] = tokens


def child(spec: dict, path: str, deadline: float) -> tuple[dict | None, str]:
    """Run worker.py on spec; return (its JSON result or None, error text)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), path],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"no result line: {done.stdout[-500:]}"


def grid_digests(out_dir: str) -> dict[str, str]:
    """One digest per training run: its results.tsv rows and its model file."""
    rows: dict[str, list[str]] = {}
    with open(os.path.join(out_dir, "results.tsv"), encoding="utf-8") as fh:
        for line in fh.read().split("\n")[2:]:
            if line:
                rows.setdefault(line.split("\t", 1)[0], []).append(line)
    models = os.path.join(out_dir, "models")
    digests = {}
    for run_id in sorted(set(rows) | {f[:-len(".json")] for f in os.listdir(models)}):
        h = hashlib.sha256("\n".join(sorted(rows.get(run_id, []))).encode("utf-8"))
        path = os.path.join(models, f"{run_id}.json")
        h.update(sha256_file(path).encode() if os.path.exists(path) else b"missing")
        digests[run_id] = h.hexdigest()
    return digests


# ----------------------------------------------------------------- metrics

def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_values(report: dict) -> dict[str, float]:
    s = report["stats"]

    def per(total: float, count: int) -> float:
        return total / count * 1e6 if count else 0.0

    v: dict[str, float] = {}
    p = s["conllu.parse_conllu"]
    v.update({"conllu.parse_conllu.calls": p["calls"],
              "conllu.parse_conllu.tokens": p.get("tokens", 0),
              "conllu.parse_conllu.self_s": p["self_s"],
              "conllu.parse_conllu.us_per_token": per(p["total_s"], p.get("tokens", 0)),
              "registry.load_dataset.calls": s["registry.load_dataset"]["calls"],
              "registry.load_dataset.self_s": s["registry.load_dataset"]["self_s"],
              "cli.run_cli.self_s": s["cli.run_cli"]["self_s"]})
    for name in ("materialize_corpus", "predict_document", "merge_results_file", "execute"):
        v[f"scenarios.{name}.self_s"] = s[f"scenarios.{name}"]["self_s"]
    t = s["tagger.train"]
    v.update({"tagger.train.calls": t["calls"],
              "tagger.train.token_epochs": t.get("token_epochs", 0),
              "tagger.train.self_s": t["self_s"],
              "tagger.train.us_per_token_epoch": per(t["total_s"], t.get("token_epochs", 0)),
              "tagger.extract_features.calls": s["tagger.extract_features"]["calls"],
              "tagger.extract_features.self_s": s["tagger.extract_features"]["self_s"],
              "tagger.tag.tokens": s["tagger.tag"].get("tokens", 0),
              "tagger.tag.us_per_token": per(s["tagger.tag"]["total_s"],
                                             s["tagger.tag"].get("tokens", 0))})
    for module in ("tagger", "lemmatizer"):
        for name in ("save_model", "load_model"):
            v[f"{module}.{name}.self_s"] = s[f"{module}.{name}"]["self_s"]
            v[f"{module}.{name}.bytes"] = s[f"{module}.{name}"].get("bytes", 0)
    v["lemmatizer.train_lemmatizer.tokens"] = s["lemmatizer.train_lemmatizer"].get("tokens", 0)
    v["lemmatizer.train_lemmatizer.self_s"] = s["lemmatizer.train_lemmatizer"]["self_s"]
    classes = report["lemma_classes"]
    for cls in LEMMA_CLASSES:
        c = classes.get(cls, {"calls": 0, "us_p50": 0.0, "us_p99": 0.0})
        for key in ("calls", "us_p50", "us_p99"):
            v[f"lemmatizer.lemmatize.{key}.{cls}"] = c[key]
    v["evaluation.evaluate.tokens"] = s["evaluation.evaluate"].get("tokens", 0)
    v["evaluation.evaluate.self_s"] = s["evaluation.evaluate"]["self_s"]
    for name in ("mine_confusions", "pos_confusions"):
        v[f"analysis.{name}.pairs"] = s[f"analysis.{name}"].get("pairs", 0)
        v[f"analysis.{name}.self_s"] = s[f"analysis.{name}"]["self_s"]
    v["normalize.normalize_word.calls"] = s["normalize.normalize_word"]["calls"]
    v["normalize.normalize_word.self_s"] = s["normalize.normalize_word"]["self_s"]
    return v


def trace_mismatches(report: dict, expected: dict, result: dict) -> list[str]:
    """Traced counts that differ from the workload's known sizes."""
    got = layer_values(report)
    got["lemmatizer.lemmatize.calls"] = report["stats"]["lemmatizer.lemmatize"]["calls"]
    want = {k: v for k, v in expected.items() if k in got}
    want["normalize.normalize_word.calls"] = result["normalized"]
    if result["lemma_classes"] is not None:
        for cls, count in result["lemma_classes"].items():
            want[f"lemmatizer.lemmatize.calls.{cls}"] = count
    return [f"{k}: traced {got[k]} != expected {w}" for k, w in sorted(want.items())
            if got[k] != w]


# -------------------------------------------------------------------- main

def inputs(workload: str, seed: int, work: str, deadline: float) -> tuple[dict, dict, int]:
    """Generate or locate the workload's inputs (training synth-annotate's
    models, untimed); return the worker spec, the counts a traced iteration
    must show, and the operations one iteration attempts."""
    import synth
    spec = {"mode": "grid", "seed": seed}
    if workload == "mini-grid":
        spec["registry"] = MINI_REGISTRY
        spec["annotate"] = [os.path.join(work, "heldout.conllu")]
        synth.mini_heldout(spec["annotate"][0], seed, MINI_HELDOUT_SENTENCES)
    else:
        data = os.path.join(work, "data")
        synth.generate(data, seed, **SYNTH_SIZES[workload])
        spec["registry"] = os.path.join(data, "registry.cfg")
        spec["annotate"] = [os.path.join(data, "heldout.conllu")]
    if workload == "synth-annotate":
        train = [os.path.join(data, f"{n.lower()}.conllu") for n in synth.GENRES + synth.TREEBANKS]
        spec.update(mode="annotate", models=os.path.join(work, "models"))
        _, error = child(dict(spec, mode="prepare", train=train),
                         os.path.join(work, "prepare.json"), deadline)
        if error:
            fail(f"preparing synth-annotate models failed: {error}")
        expected: dict = {}
        add_annotation(expected, spec["annotate"])
        expected["tagger.train.calls"] = 0
        per_iteration_ops = len(sentence_sizes(spec["annotate"][0]))
    else:
        expected = grid_expectations(spec["registry"], spec["annotate"])
        per_iteration_ops = expected["training_runs"] + sum(
            len(sentence_sizes(p)) for p in spec["annotate"])
    return spec, expected, per_iteration_ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="medlatin benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("mini-grid", "synth-grid", "synth-annotate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    deadline = started + HARD_DEADLINE_S

    for needed in (os.path.join(ROOT, "src", "medlatin", "__init__.py"),
                   os.path.join(ROOT, "tests", "make_fixtures.py"), MINI_REGISTRY,
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            fail(f"{os.path.relpath(needed, ROOT)} not found: run from a medlatin checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    env = environment()

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    spec, expected, per_iteration_ops = inputs(args.workload, args.seed, work, deadline)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        committed = json.load(fh)

    setups = []
    for index in range(SETUP_SAMPLES):
        result, error = child(dict(spec, trace=False, setup_only=True),
                              os.path.join(work, f"setup-{index}.json"), deadline)
        if result is None:
            fail(f"set-up failed: {error}")
        setups.append(result)

    iterations: list[dict] = []
    loop_start = perf_counter()
    while True:
        index = len(iterations)
        traced = bool(args.trace) and index % 2 == 1
        it_spec = dict(spec, trace=traced, setup_only=False, run_id=f"{tag}-i{index}",
                       out=os.path.join(work, f"grid-{index}"),
                       spans=os.path.join(WORK, "results", f"{tag}-spans-{index}.jsonl"))
        t = perf_counter()
        result, error = child(it_spec, os.path.join(work, f"spec-{index}.json"), deadline)
        it = {"index": index, "traced": traced, "result": result,
              "errors": [error] if error else [], "duration_s": perf_counter() - t,
              "bad_runs": set()}
        if result is not None and spec["mode"] == "grid":
            it["digests"] = grid_digests(it_spec["out"])
            shutil.rmtree(it_spec["out"])
        iterations.append(it)
        elapsed = perf_counter() - loop_start
        longest = max(i["duration_s"] for i in iterations)
        typical = statistics.median(i["duration_s"] for i in iterations)
        if perf_counter() + longest > deadline:
            break
        if index + 1 >= MIN_ITERATIONS and elapsed + typical > args.seconds:
            break

    # ------------------------------------------------------------ checks
    ok = [it for it in iterations if it["result"] is not None]
    first = ok[0]["result"] if ok else None
    # At the default seed the annotation must match the committed record;
    # at any other seed every iteration must match the first.
    if args.seed == DEFAULT_SEED:
        reference, against = committed[args.workload], "perfbench/digests.json"
    else:
        reference, against = first, "the first iteration"
    for it in ok:
        r = it["result"]
        if r["own_accuracy"] != r["accuracy"]:
            it["errors"].append(f"accuracy {r['accuracy']} != own count {r['own_accuracy']}")
        if r["output_sha256"] != reference["output_sha256"]:
            it["errors"].append(f"annotation output differs from {against}")
        if r["lemma_classes"] != reference["lemma_classes"]:
            it["errors"].append(f"lemma cascade classes {r['lemma_classes']} differ from "
                                f"{against}: {reference['lemma_classes']}")
        if it["traced"]:
            it["errors"] += trace_mismatches(r["trace"], expected, r)
    if spec["mode"] == "grid":
        for pos, it in enumerate(ok):
            if args.seed == DEFAULT_SEED:
                reference = committed[args.workload]["runs"]
            elif len(ok) > 1:
                reference = ok[pos - 1 if pos else 1]["digests"]
            else:
                it["errors"].append("only one grid: nothing to compare with")
                continue
            it["bad_runs"] = {r for r in set(reference) | set(it["digests"])
                              if reference.get(r) != it["digests"].get(r)}
    attempted = per_iteration_ops * len(iterations)
    failed = 0
    for it in iterations:
        if it["errors"]:
            failed += per_iteration_ops
        else:
            failed += len(it["bad_runs"])
    errors = [f"iteration {it['index']}: {e}" for it in iterations for e in it["errors"]]
    errors += [f"iteration {it['index']}: run {r} does not match its reference digest"
               for it in iterations for r in sorted(it["bad_runs"])]

    # ----------------------------------------------------------- metrics
    plain = [it["result"] for it in ok if not it["traced"]]
    values: dict[str, float] = {}
    raw: dict[str, float] = {}
    samples: dict[str, int] = {}
    if plain:
        work_tokens = expected.get("grid_work_tokens", expected["annotated_tokens"])
        sentences = sum(len(r["sentences"]) for r in plain)
        raw_sentence_s = [statistics.median(t for _, t in column)
                          for column in zip(*(r["sentences"] for r in plain))]
        raw = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "sent_p50_ms": quantile(raw_sentence_s, 0.50) * 1e3,
            "sent_p99_ms": quantile(raw_sentence_s, 0.99) * 1e3,
        }
        raw["tok_per_s"] = work_tokens / raw["wall_s"]
        # The same times at the reference host speed (gauge.py): the median
        # grid or pipeline time over iterations, and each sentence's median
        # latency over iterations, whose quantiles over sentences are the
        # sentence metrics.
        wall = statistics.median(sum(normalized(r["wall_chunks"], r["wall_probes"]))
                                 for r in plain)
        sentence_s = [statistics.median(column) for column in zip(
            *(normalized(r["sentences"], r["sentence_probes"]) for r in plain))]
        values = {
            "setup_s": statistics.median(r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe_s"]
                                         for r in setups + plain),
            "wall_ref_s": wall,
            "tok_per_ref_s": work_tokens / wall,
            "sent_p50_ref_ms": quantile(sentence_s, 0.50) * 1e3,
            "sent_p99_ref_ms": quantile(sentence_s, 0.99) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "success_share": (attempted - failed) / attempted,
            **{f"{f}_acc": float(first["own_accuracy"][f]) for f in ("upos", "ufeats", "lemma")},
        }
        samples = dict.fromkeys(values, len(plain))
        samples.update(setup_s=len(setups) + len(plain), sent_p50_ref_ms=sentences,
                       sent_p99_ref_ms=sentences, success_share=attempted,
                       upos_acc=plain[0]["tokens"],
                       ufeats_acc=plain[0]["tokens"], lemma_acc=plain[0]["tokens"])
    layers: dict[str, float] = {}
    traced = [it["result"] for it in ok if it["traced"]]
    if traced and plain:
        per = [layer_values(r["trace"]) for r in traced]
        layers = {k: statistics.median(p[k] for p in per) for k in per[0]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else values
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        errors.append(f"no value for {', '.join(missing)}")
        failed = max(failed, 1)
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}

    for m in bench["end_to_end"]:
        if m["name"] in values:
            print(f"{m['name']:14s} {values[m['name']]:>14.6g} {m['unit']:6s} "
                  f"(n={samples[m['name']]})")
    for name, value in raw.items():
        unit = {"setup_s": "s", "wall_s": "s", "tok_per_s": "1/s"}.get(name, "ms")
        print(f"{name:14s} {value:>14.6g} {unit:6s} (at the host's own speed; not gated)")
    if args.trace:
        for m in bench["per_layer"]:
            if m["name"] in layers:
                print(f"{m['name']:46s} {layers[m['name']]:>14.6g} {m['unit']} "
                      f"(n={len(traced)})")
    print(f"failed_share   {failed / attempted:>14.6g} share  "
          f"({failed} of {attempted} operations failed)")
    for line in errors[:20]:
        print(f"error: {line}")

    env["loadavg_end"] = os.getloadavg()
    probes = [seconds for r in plain for _, seconds in r["wall_probes"] + r["sentence_probes"]]
    if probes:
        env["probe_ms"] = {"count": len(probes), "median": statistics.median(probes) * 1e3,
                           "min": min(probes) * 1e3, "max": max(probes) * 1e3}
    with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as fh:
        interactions = json.load(fh)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "expected": expected,
        "iterations": [{"index": it["index"], "traced": it["traced"],
                        "duration_s": it["duration_s"],
                        **{k: it["result"][k] for k in ("setup_s", "wall_s", "peak_rss_mb")
                           if it["result"] is not None}} for it in iterations],
        "end_to_end": {k: {"value": v, "samples": samples[k]} for k, v in values.items()},
        "raw": raw,
        "per_layer": layers,
        "lemma_classes": first["lemma_classes"] if first else None,
        "errors": errors, "interactions": interactions,
        "why": {w["name"]: w["why"] for w in bench["workloads"]},
    }
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
