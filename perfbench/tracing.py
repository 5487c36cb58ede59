"""Per-layer tracing installed from outside the program.

Tracer.install() replaces each listed medlatin function with a wrapper, under
every name a medlatin module binds it to (``scenarios.load_dataset`` as well
as ``registry.load_dataset``), so calls made through any import are seen.
Nothing under src/ is edited; the wrappers live only in the process that
installs them.

Two kinds of wrapper:

* span functions record (name, start, end, parent, run id) in memory;
* hot functions, called once per token or sentence, keep only a count, the
  summed time and a log-scale latency histogram.

Both push a frame, so every layer's self time is its own time minus the
time of the traced calls nested in it, the wrappers' bookkeeping (counters,
lemma classification) included.  That bookkeeping is in no layer's time;
trace.overhead_s (traced minus untraced wall time) shows its total.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
from time import perf_counter

# Histogram buckets are 2**(1/16) wide: a reported percentile is within 2.2%.
BUCKETS_PER_OCTAVE = 16


def _args(original):
    signature = inspect.signature(original)

    def bound(args, kwargs):
        b = signature.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bound


def _file_bytes(original):
    bound = _args(original)
    return lambda args, kwargs, result: {"bytes": os.path.getsize(bound(args, kwargs)["path"])}


def _counters(name: str, original):
    """What each traced function counts besides calls and time."""
    if name == "conllu.parse_conllu":
        return lambda args, kwargs, result: {"tokens": result.token_count()}
    if name == "tagger.train":
        bound = _args(original)

        def token_epochs(args, kwargs, result):
            a = bound(args, kwargs)
            return {"token_epochs": a["corpus"].token_count() * a["epochs"]}
        return token_epochs
    if name == "tagger.tag":
        return lambda args, kwargs, result: {"tokens": len(result)}
    if name in ("tagger.save_model", "tagger.load_model",
                "lemmatizer.save_model", "lemmatizer.load_model"):
        return _file_bytes(original)
    if name == "lemmatizer.train_lemmatizer":
        bound = _args(original)
        return lambda args, kwargs, result: {"tokens": bound(args, kwargs)["corpus"].token_count()}
    if name == "evaluation.evaluate":
        return lambda args, kwargs, result: {"tokens": result.token_count}
    if name == "analysis.mine_confusions":
        return lambda args, kwargs, result: {"pairs": len(args[0] if args else kwargs["errors"])}
    if name == "analysis.pos_confusions":
        return lambda args, kwargs, result: {"pairs": sum(result.values())}
    return None


# (module.function, kind); hot functions are called per token or sentence.
TARGETS = (
    ("cli.run_cli", "span"),
    ("conllu.parse_conllu", "span"),
    ("registry.load_dataset", "span"),
    ("scenarios.execute", "span"),
    ("scenarios.materialize_corpus", "span"),
    ("scenarios.predict_document", "span"),
    ("scenarios.merge_results_file", "span"),
    ("tagger.train", "span"),
    ("tagger.extract_features", "hot"),
    ("tagger.tag", "hot"),
    ("tagger.save_model", "span"),
    ("tagger.load_model", "span"),
    ("lemmatizer.train_lemmatizer", "span"),
    ("lemmatizer.lemmatize", "hot"),
    ("lemmatizer.save_model", "span"),
    ("lemmatizer.load_model", "span"),
    ("evaluation.evaluate", "span"),
    ("analysis.mine_confusions", "span"),
    ("analysis.pos_confusions", "span"),
    ("normalize.normalize_word", "hot"),
)


class Histogram:
    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.count = 0

    def add(self, seconds: float) -> None:
        b = math.floor(math.log2(max(seconds, 1e-9)) * BUCKETS_PER_OCTAVE)
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1

    def percentile(self, q: float) -> float:
        """Bucket midpoint holding the q-quantile, in seconds (0.0 when empty)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                return 2.0 ** ((b + 0.5) / BUCKETS_PER_OCTAVE)
        raise AssertionError("unreachable")


class Stat:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                **self.counts}


class Tracer:
    def __init__(self, run_id: str, classify_lemma_query=None):
        """classify_lemma_query(model, query) -> class name splits the
        lemmatize latency histogram by cascade step."""
        self.run_id = run_id
        self.classify = classify_lemma_query
        self.stats = {name: Stat() for name, _ in TARGETS}
        self.lemma_classes: dict[str, Histogram] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = [[0.0, None]]  # [child time, span index]

    def install(self) -> None:
        for name, kind in TARGETS:
            module_name, func_name = name.split(".")
            module = sys.modules[f"medlatin.{module_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(name, kind, original)
            bound = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "medlatin" and not mod_name.startswith("medlatin."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name} is bound nowhere")

    def _wrap(self, name: str, kind: str, original):
        stat = self.stats[name]
        stack = self._stack
        count = _counters(name, original)
        spans = self.spans
        run_id = self.run_id
        lemma = name == "lemmatizer.lemmatize"

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1]
            try:
                frame = [0.0, len(spans) if kind == "span" else parent[1]]
                if kind == "span":
                    spans.append(None)
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    elapsed = end - start
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[0]
                    if kind == "span":
                        spans[frame[1]] = (name, start, end, parent[1], run_id)
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        stat.counts[key] = stat.counts.get(key, 0) + value
                if lemma and self.classify is not None:
                    cls = self.classify(*args, **kwargs)
                    self.lemma_classes.setdefault(cls, Histogram()).add(elapsed)
                return result
            finally:
                # The whole wrapper, bookkeeping included, is child time of
                # the parent, so the parent's self time leaves it out.
                parent[0] += perf_counter() - entered
        return wrapper

    def report(self) -> dict:
        return {
            "stats": {name: stat.as_dict() for name, stat in self.stats.items()},
            "lemma_classes": {
                cls: {"calls": h.count, "us_p50": h.percentile(0.5) * 1e6,
                      "us_p99": h.percentile(0.99) * 1e6}
                for cls, h in sorted(self.lemma_classes.items())},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
