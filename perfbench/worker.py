"""One benchmark iteration in a fresh process: set up, run the timed phase,
print one JSON line of measurements.

    python3 perfbench/worker.py SPEC.json

SPEC.json names the mode (``grid``, ``annotate`` or ``prepare``), the input
paths, the seed, whether to trace and whether to stop after set-up.
``setup_s`` counts medlatin's imports, registry load and, for
``annotate``, model loading.  Interpreter start-up is left out; it does not
depend on the program and is the noisiest part of a fresh process.

The host's speed is gauged (perfbench/gauge.py) just before and after
set-up (``setup_probe_s``) and beside every timed phase, whose times leave
the probes out; the chunks, sentence latencies and probes are reported with
their times so run.py can rescale them.  run.py drives this file; it is not
meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
from decimal import ROUND_HALF_UP, Decimal
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from gauge import Gauge, probe_time  # noqa: E402

FIELDS = ("upos", "ufeats", "lemma")
SETUP_PROBES = 3


def classify_lemma_query(model, query) -> str:
    """Which cascade step answers the query, read from the model's public
    lexicon and scripts dicts: lexicon, suffix_upos, pooled (steps 4 and 5)
    or sym."""
    from medlatin import lemmatizer
    if query.upos == "SYM":
        return "sym"
    form = query.form.lower()
    if model.lexicon.get((form, query.upos)):
        return "lexicon"
    for n in range(min(lemmatizer.MAX_SUFFIX_KEY, len(form)), 0, -1):
        counter = model.scripts.get((form[-n:], query.upos))
        if counter:
            key = min(counter, key=lambda k: (-counter[k], k))
            script = lemmatizer.EditScript(*key[:4], tuple(tuple(e) for e in key[4]))
            try:
                lemmatizer.apply_edit_script(script, form)
                return "suffix_upos"
            except lemmatizer.ScriptIncompatible:
                continue
    return "pooled"


def accuracy_counts(gold, predicted) -> dict[str, str]:
    """Per-field accuracy counted independently of medlatin.evaluation."""
    total = 0
    matches = dict.fromkeys(FIELDS, 0)
    for g_sent, p_sent in zip(gold.sentences, predicted.sentences, strict=True):
        for g, p in zip(g_sent.tokens, p_sent.tokens, strict=True):
            total += 1
            matches["upos"] += g.upos == p.upos
            matches["ufeats"] += g.ufeats == p.ufeats
            matches["lemma"] += g.lemma.lower() == p.lemma.lower()
    return {f: str((Decimal(100 * m) / Decimal(total)).quantize(Decimal("0.01"), ROUND_HALF_UP))
            for f, m in matches.items()}


def annotate_once(gold, models, gauge: Gauge,
                  latencies: list[tuple[float, float]]) -> tuple[list, list]:
    """Tag and lemmatize one sentence at a time, timing each sentence as
    (middle on the perf_counter() clock, seconds net of probes)."""
    from medlatin import lemmatizer, tagger
    upos_model, ufeats_model, lemma_model, _ = models
    queries, sentences = [], []
    for sentence in gold.sentences:
        start = gauge.now()
        upos = tagger.tag(upos_model, sentence)
        feats = tagger.tag(ufeats_model, sentence)
        lemmas = []
        for tok, tag in zip(sentence.tokens, upos):
            query = lemmatizer.LemmaQuery(tok.form, tag)
            lemmas.append(lemmatizer.lemmatize(lemma_model, query))
            queries.append(query)
        took = gauge.now() - start
        latencies.append((perf_counter() - took / 2, took))
        tokens = tuple(
            dataclasses.replace(
                tok, upos=u, lemma=lemma,
                ufeats=() if f == "_" else tuple(tuple(kv.split("=", 1)) for kv in f.split("|")))
            for tok, u, f, lemma in zip(sentence.tokens, upos, feats, lemmas))
        sentences.append(dataclasses.replace(sentence, tokens=tokens))
    return queries, sentences


def read_pipeline(models, gold, gauge: Gauge) -> dict:
    """Annotate the corpus, normalize the predicted lemmas, evaluate, mine
    confusions and serialize the result."""
    from medlatin import analysis, conllu, evaluation, normalize
    ruleset = models[3]
    latencies: list[tuple[float, float]] = []
    queries, sentences = annotate_once(gold, models, gauge, latencies)
    normalized = 0
    for i, sentence in enumerate(sentences):
        tokens = []
        for tok in sentence.tokens:
            if tok.lemma != "_":
                tok = dataclasses.replace(tok, lemma=normalize.normalize_word(ruleset, tok.lemma))
                normalized += 1
            tokens.append(tok)
        sentences[i] = dataclasses.replace(sentence, tokens=tuple(tokens))
    predicted = conllu.Document(tuple(sentences), "predicted")
    report = evaluation.evaluate(gold, predicted)
    pairs = analysis.lemma_error_pairs(gold, predicted)
    confusions = analysis.mine_confusions(pairs)
    pos = analysis.pos_confusions(gold, predicted)
    text = conllu.serialize(predicted)
    return {
        "latencies": latencies,
        "queries": queries,
        "predicted": predicted,
        "normalized": normalized,
        "accuracy": {f: str(report.accuracy[f]) for f in FIELDS},
        "output_sha256": hashlib.sha256(
            (text + repr(confusions) + repr(sorted(pos.items()))).encode("utf-8")).hexdigest(),
    }


def load_models(model_dir: str, prefix: str):
    from medlatin import lemmatizer, normalize, tagger
    return (tagger.load_model(os.path.join(model_dir, f"{prefix}upos.json")),
            tagger.load_model(os.path.join(model_dir, f"{prefix}ufeats.json")),
            lemmatizer.load_model(os.path.join(model_dir, f"{prefix}lemma.json")),
            normalize.default_gold_ruleset())


def read_corpus(paths):
    from medlatin import conllu
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(conllu.parse_conllu(fh.read(), source_name=path))
    return conllu.concat_documents(docs, "+".join(paths))


def grid(spec: dict, timings: dict, end_setup) -> dict:
    from medlatin import cli, registry
    registry.load_registry(spec["registry"])
    end_setup()
    if spec["setup_only"]:
        return None
    argv = ["scenario", "run", "--scenario", "all", "--registry", spec["registry"],
            "--out", spec["out"], "--seed", str(spec["seed"])]
    probing = not spec["trace"]
    with Gauge(probing) as gauge, contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_cli(argv)
    timings.update(wall_s=gauge.wall(), wall_chunks=gauge.chunks, wall_probes=gauge.probes)
    if code != 0:
        raise RuntimeError(f"scenario run exited with {code}")
    # The grid's product is its models: annotate with the ud_all ones.
    models = load_models(os.path.join(spec["out"], "models"), "ud_all__")
    gold = read_corpus(spec["annotate"])
    with Gauge(probing) as gauge:
        result = read_pipeline(models, gold, gauge)
    return result | {"gold": gold, "sentence_probes": gauge.probes}


def annotate(spec: dict, timings: dict, end_setup) -> dict:
    models = load_models(spec["models"], "")
    end_setup()
    if spec["setup_only"]:
        return None
    with Gauge(not spec["trace"]) as gauge:
        gold = read_corpus(spec["annotate"])
        result = read_pipeline(models, gold, gauge)
    timings.update(wall_s=gauge.wall(), wall_chunks=gauge.chunks, wall_probes=gauge.probes)
    result["sentence_probes"] = gauge.probes
    result["lemma_classes"] = {}
    for query in result["queries"]:
        cls = classify_lemma_query(models[2], query)
        result["lemma_classes"][cls] = result["lemma_classes"].get(cls, 0) + 1
    return result | {"gold": gold}


def prepare(spec: dict) -> None:
    """Train and save the three models synth-annotate loads."""
    from medlatin import lemmatizer, tagger
    corpus = read_corpus(spec["train"])
    os.makedirs(spec["models"], exist_ok=True)
    for task in ("upos", "ufeats"):
        model = tagger.train(corpus, task, seed=spec["seed"])
        tagger.save_model(model, os.path.join(spec["models"], f"{task}.json"))
    lemmatizer.save_model(lemmatizer.train_lemmatizer(corpus),
                          os.path.join(spec["models"], "lemma.json"))


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "prepare":
        prepare(spec)
        print(json.dumps({"ok": True}))
        return
    timings: dict = {}
    probed = probe_time(SETUP_PROBES)
    started = perf_counter()

    def end_setup() -> None:
        timings["setup_s"] = perf_counter() - started
        timings["setup_probe_s"] = (probed + probe_time(SETUP_PROBES)) / 2

    import medlatin.cli  # noqa: F401  (imports every module the tracer patches)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(spec["run_id"], classify_lemma_query)
        tracer.install()
    result = (grid if spec["mode"] == "grid" else annotate)(spec, timings, end_setup)
    if result is None:
        print(json.dumps(timings))
        return
    out = {
        **timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sentences": result["latencies"],
        "sentence_probes": result["sentence_probes"],
        "tokens": result["gold"].token_count(),
        "normalized": result["normalized"],
        "accuracy": result["accuracy"],
        "own_accuracy": accuracy_counts(result["gold"], result["predicted"]),
        "output_sha256": result["output_sha256"],
        "lemma_classes": result.get("lemma_classes"),
    }
    if tracer is not None:
        out["trace"] = tracer.report()
        tracer.write_spans(spec["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
