"""Trainable token-classification tagger for UPOS and composite UFeats labels.

The model is an averaged perceptron over sparse binary features with greedy
left-to-right decoding: CPU-trainable in seconds, fully deterministic, and
honoring the contracts the training scenarios need: staged initialization
from a base model, a closed tagset read from the training corpus, one tag
per token.  UFeats are treated as a single composite label ("Case=Nom|
Number=Sing" with keys sorted, "_" when empty), not per-feature
classification.

Training uses teacher forcing for the previous-tag feature (gold previous
tag); decoding feeds back the predicted tag.  Ties in scoring break toward
the lexicographically smallest tag, so an untrained model with zero weights
tags everything with the first tag of the sorted tagset.

Weights are stored feature-major, as in Honnibal's "A good POS tagger in
about 200 lines of Python" (2013): feature id -> {tag index: weight}.
Scoring a token reads only the rows of its active features and adds each
row into a per-tag score list, feature by feature in the order
extract_features returns them, so every tag's sum is taken in the same
order as a (feature, tag) lookup per tag would take it.  Training drops
zero weights and empty rows.  The on-disk format does not depend on this
layout: a model file lists the weights as [feature id, tag index, weight]
rows sorted by feature id, then tag index.

REFERENCE_FINETUNE_CONFIG holds the hyperparameters of the full-scale
fine-tuning setup this trainer stands in for; they are recorded in every
model's metadata for provenance but are not interpreted here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isfinite

from .conllu import Sentence
from .errors import (EmptyCorpus, JSONItems, MedlatinError, json_entries, json_row,
                     read_model_file, write_model_file)

TASKS = ("upos", "ufeats")

BOUNDARY = "<s>"
END_BOUNDARY = "</s>"

MODEL_FORMAT = "medlatin-tagger/1"

REFERENCE_FINETUNE_CONFIG = {
    "batch_size": 12,
    "epochs": 10,
    "learning_rate": 2e-5,
    "sequence_length": 256,
}


class TaskMismatch(MedlatinError):
    pass


class IndexOutOfRange(MedlatinError):
    pass


@dataclass(frozen=True)
class TrainingStage:
    datasets: tuple[str, ...]
    epochs: int
    was_continued: bool


@dataclass(frozen=True)
class TaggerModel:
    task: str
    tagset: tuple[str, ...]
    feature_vocabulary: dict[str, int]
    weights: dict[int, dict[int, float]]
    provenance: tuple[TrainingStage, ...] = ()
    config_metadata: dict = field(default_factory=lambda: dict(REFERENCE_FINETUNE_CONFIG))


def gold_label(token, task: str) -> str:
    if task == "upos":
        return token.upos
    return token.feats_string()


def extract_features(sentence: Sentence, index: int, prev_tag: str = BOUNDARY) -> tuple[str, ...]:
    """Deterministic sparse features for one token, sorted and deduplicated.

    prev_tag is decoding state: gold previous tag during training (teacher
    forcing), predicted previous tag during greedy decoding.
    """
    if not 0 <= index < len(sentence.tokens):
        raise IndexOutOfRange(f"token index {index} out of range")
    form = sentence.tokens[index].form
    low = form.lower()
    feats = {f"w={low}", f"pt={prev_tag}"}
    for n in range(1, min(4, len(low)) + 1):
        feats.add(f"p{n}={low[:n]}")
        feats.add(f"s{n}={low[-n:]}")
    if any(ch.isdigit() for ch in form):
        feats.add("has_digit")
    if form[0].isupper():
        feats.add("is_cap")
    if form.isupper():
        feats.add("all_caps")
    prev_form = sentence.tokens[index - 1].form.lower() if index > 0 else BOUNDARY
    next_form = (sentence.tokens[index + 1].form.lower()
                 if index + 1 < len(sentence.tokens) else END_BOUNDARY)
    feats.add(f"pw={prev_form}")
    feats.add(f"nw={next_form}")
    return tuple(sorted(feats))


def _best_tag(tagset: tuple[str, ...], weights: dict[int, dict[int, float]],
              feature_ids: list[int]) -> str:
    scores = [0.0] * len(tagset)
    for f_id in feature_ids:
        row = weights.get(f_id)
        if row is not None:
            for t_idx, w in row.items():
                scores[t_idx] += w
    best = max(scores)
    if scores.count(best) == 1:
        return tagset[scores.index(best)]
    return min(t for t, score in zip(tagset, scores) if score == best)


def train(corpus, task: str, epochs: int = 5, base: TaggerModel | None = None,
          seed: int = 0, datasets: tuple[str, ...] | None = None) -> TaggerModel:
    """Averaged-perceptron training with greedy decoding and per-epoch shuffling.

    Deterministic given (corpus, task, epochs, base, seed).  When a base
    model is given, its (averaged) weights, feature vocabulary and tagset
    are the starting point and new tags/features are appended, so staged
    training continues rather than restarts.  epochs=0 performs no updates:
    the result predicts exactly like the base (or like a zero-weight model).
    """
    if task not in TASKS:
        raise TaskMismatch(f"unknown task {task!r}")
    if base is not None and base.task != task:
        raise TaskMismatch(f"base model is for {base.task!r}, requested {task!r}")
    if not corpus.sentences:
        raise EmptyCorpus(f"cannot train {task} tagger on empty corpus {corpus.source_name!r}")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")

    if base is not None:
        tagset = list(base.tagset)
        vocab = dict(base.feature_vocabulary)
        w = {f_id: dict(row) for f_id, row in base.weights.items()}
    else:
        tagset, vocab, w = [], {}, {}
    known = set(tagset)
    corpus_tags = sorted({gold_label(t, task) for s in corpus.sentences for t in s.tokens})
    for tag in corpus_tags:
        if tag not in known:
            tagset.append(tag)
            known.add(tag)
    tagset_t = tuple(tagset)
    tag_index = {t: i for i, t in enumerate(tagset_t)}

    def feature_ids(feats: tuple[str, ...], grow: bool) -> list[int]:
        ids = []
        for f in feats:
            f_id = vocab.get(f)
            if f_id is None:
                if not grow:
                    continue
                f_id = len(vocab)
                vocab[f] = f_id
            ids.append(f_id)
        return ids

    # Lazy averaging: acc accumulates sum-over-steps of each weight, flushed
    # at (last-touched, now] intervals; untouched keys average to their
    # starting value, which keeps epochs=0 an exact identity on the base.
    acc: dict[tuple[int, int], float] = {}
    ts: dict[tuple[int, int], int] = {}
    step = 0

    def bump(row: dict[int, float], f_id: int, t_idx: int, delta: float) -> None:
        key = (f_id, t_idx)
        value = row.get(t_idx, 0.0)
        acc[key] = acc.get(key, 0.0) + (step - ts.get(key, 0)) * value
        ts[key] = step
        row[t_idx] = value + delta

    rng = random.Random(seed)
    order = list(range(len(corpus.sentences)))
    for _ in range(epochs):
        rng.shuffle(order)
        for s_i in order:
            sentence = corpus.sentences[s_i]
            prev = BOUNDARY
            for i in range(len(sentence.tokens)):
                feats = extract_features(sentence, i, prev)
                ids = feature_ids(feats, grow=True)
                gold = gold_label(sentence.tokens[i], task)
                pred = _best_tag(tagset_t, w, ids)
                if pred != gold:
                    g_idx, p_idx = tag_index[gold], tag_index[pred]
                    for f_id in ids:
                        row = w.setdefault(f_id, {})
                        bump(row, f_id, g_idx, 1.0)
                        bump(row, f_id, p_idx, -1.0)
                prev = gold
                step += 1

    averaged: dict[int, dict[int, float]] = {}
    for f_id, row in w.items():
        kept = {}
        for t_idx, value in row.items():
            if step:
                key = (f_id, t_idx)
                value = (acc.get(key, 0.0) + (step - ts.get(key, 0)) * value) / step
            if value != 0.0:
                kept[t_idx] = value
        if kept:
            averaged[f_id] = kept

    stage = TrainingStage(
        datasets=datasets if datasets is not None else (corpus.source_name,),
        epochs=epochs,
        was_continued=base is not None,
    )
    provenance = (base.provenance if base is not None else ()) + (stage,)
    return TaggerModel(task, tagset_t, vocab, averaged, provenance,
                       dict(REFERENCE_FINETUNE_CONFIG))


def tag(model: TaggerModel, sentence: Sentence) -> list[str]:
    """Greedy left-to-right tagging; one tag per token, always."""
    vocab = model.feature_vocabulary
    tags: list[str] = []
    prev = BOUNDARY
    for i in range(len(sentence.tokens)):
        feats = extract_features(sentence, i, prev)
        ids = [vocab[f] for f in feats if f in vocab]
        predicted = _best_tag(model.tagset, model.weights, ids)
        tags.append(predicted)
        prev = predicted
    return tags


_WEIGHT_ROW = json_row("%d", "%d", "%r")  # feature id, tag index, weight


def _weight_rows(weights: dict[int, dict[int, float]]):
    """The weight rows' JSON texts, sorted by feature id, then tag index."""
    for f, row in sorted(weights.items()):
        for t, w in sorted(row.items()):
            yield _WEIGHT_ROW % (f, t, w)


def save_model(model: TaggerModel, path: str) -> None:
    vocab = model.feature_vocabulary
    features = sorted(vocab)
    write_model_file(path, {
        "format": MODEL_FORMAT,
        "task": model.task,
        "tagset": list(model.tagset),
        "feature_vocabulary": JSONItems(
            json_entries(features, map(str, map(vocab.__getitem__, features))), "{}"),
        "weights": JSONItems(_weight_rows(model.weights)),
        "provenance": [
            {"datasets": list(s.datasets), "epochs": s.epochs, "was_continued": s.was_continued}
            for s in model.provenance
        ],
        "config_metadata": model.config_metadata,
    })


MODEL_SCHEMA = {"task": str, "tagset": list, "feature_vocabulary": dict, "weights": list,
                "provenance": list, "config_metadata": dict}


def load_model(path: str) -> TaggerModel:
    """Read a model file; a malformed one raises MedlatinError naming the path.

    Every weight row must name a feature id from the vocabulary, a tag
    index inside the tagset, because scoring indexes the tagset by it, and
    a finite int or float weight, because save_model writes float.__repr__.
    """
    return read_model_file(path, MODEL_FORMAT, MODEL_SCHEMA, _model_from_payload)


def _finite_weight(f: int, t: int, w) -> float:
    """The weight of a row whose weight is not a finite float: an int, as a
    float; anything else (inf, a bool, a string) is an error."""
    if w.__class__ is not int:
        raise ValueError(f"weight row {[f, t, w]}: weight {w!r} is not a finite number")
    return float(w)


def _model_from_payload(payload: dict) -> TaggerModel:
    task = payload["task"]
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    tagset = tuple(payload["tagset"])
    if not tagset or not all(isinstance(t, str) for t in tagset):
        raise ValueError("tagset must be a non-empty list of strings")
    vocab = {k: int(v) for k, v in payload["feature_vocabulary"].items()}
    known_ids = set(vocab.values())
    n_tags = len(tagset)
    weights: dict[int, dict[int, float]] = {}
    for f, t, w in payload["weights"]:
        f, t = int(f), int(t)
        row = weights.get(f)
        if row is None:
            if f not in known_ids:
                raise ValueError(f"weight row {[f, t, w]}: feature id {f} is not in the vocabulary")
            row = weights[f] = {}
        if not 0 <= t < n_tags:
            raise ValueError(f"weight row {[f, t, w]}: tag index {t} is outside "
                             f"the tagset of {n_tags} tags")
        if w.__class__ is not float or not isfinite(w):
            w = _finite_weight(f, t, w)
        row[t] = w
    return TaggerModel(
        task=task,
        tagset=tagset,
        feature_vocabulary=vocab,
        weights=weights,
        provenance=tuple(
            TrainingStage(tuple(s["datasets"]), int(s["epochs"]), bool(s["was_continued"]))
            for s in payload["provenance"]
        ),
        config_metadata=payload["config_metadata"],
    )
