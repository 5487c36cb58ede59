"""Trainable token-classification tagger for UPOS and composite UFeats labels.

The model is an averaged perceptron over sparse binary features with greedy
left-to-right decoding: CPU-trainable in seconds, fully deterministic, and
honoring the contracts the training scenarios need: staged initialization
from a base model, a closed tagset read from the training corpus, one tag
per token.  UFeats are treated as a single composite label (conllu.TASKS
reads "Case=Nom|Number=Sing", or "_"), not per-feature classification.

Training uses teacher forcing for the previous-tag feature (gold previous
tag); decoding feeds back the predicted tag.  Ties in scoring break toward
the lexicographically smallest tag, so an untrained model with zero weights
tags everything with the first tag of the sorted tagset.

extract_features emits a token's features in a fixed order that is their
sorted order, so it neither sorts nor deduplicates them.  It builds only the
previous-tag feature per call: every other feature string comes from its
own word form or a neighbour's, through _form_features, a memo of at most
FORM_MEMO_SIZE (2048) distinct forms that drops the least recently used.
The memo changes no feature and no count of calls; it holds ~1.7 MB when
full.

Weights are stored feature-major, as in Honnibal's "A good POS tagger in
about 200 lines of Python" (2013): feature string -> {tag index: weight}.
Scoring a token reads only the rows of its active features and adds each
row into a per-tag score list, feature by feature in the order
extract_features returns them, so every tag's sum is taken in the same
order as a (feature, tag) lookup per tag would take it.  train and tag
score through the same helper.  train reads each sentence's gold labels
and their tag indices once per call, and keeps the lazy-averaging totals
and timestamps in rows keyed like the weights.  Training drops zero
weights but keeps a row, empty if need be, for every feature it has seen,
in first-seen order, so a feature's id is its row's position.  Only the
model file names features by id: save_model works out its feature
vocabulary (feature -> id) and its [feature id, tag index, weight] rows,
sorted by feature id, then tag index, and load_model rebuilds the rows in
id order, so training from a loaded base model continues its ids.  Each row
is one f-string, and each distinct nonzero weight's float.__repr__, the
costly part, is made and checked to be finite once per save.

From epoch 1 on, train skips scoring a token that was tagged correctly
when last scored, if no weight row of its features has changed since.
This is exact: a perceptron changes weights only on a mistake and only in
the rows of the mistaken token's features (Collins 2002); teacher forcing
gives a token the same features in every epoch, and _best_index depends
only on those rows and the tagset, which a train call fixes.  So a rescore
would give the gold tag again and change nothing, and a mistaken token,
whose own rows it changes, is always rescored.  A skipped token still has
its features extracted, and still advances the previous tag and the
averaging step.  One comparison settles most tokens: if no weight has
changed anywhere since the token was last confirmed (last_change, the step
of the call's latest update, is older), its rows are not read at all;
otherwise the step at which each of its rows last changed decides.  A skip
moves the token's confirmed step to the current one, as a rescore giving
the gold tag would, so an epoch without a mistake makes every token after
it skip on the one comparison.

REFERENCE_FINETUNE_CONFIG holds the hyperparameters of the full-scale
fine-tuning setup this trainer stands in for; save_model writes them into
every model file for provenance, and nothing here interprets them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

from .conllu import TASKS, Sentence
from .errors import (EmptyCorpus, JSONItems, MedlatinError, json_string, read_model_file,
                     read_provenance, write_model_file)

BOUNDARY = "<s>"
END_BOUNDARY = "</s>"

MODEL_FORMAT = "medlatin-tagger/1"

# Distinct word forms whose features _form_features keeps, ~880 bytes each.
FORM_MEMO_SIZE = 2048

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


class NegativeEpochs(MedlatinError):
    pass


@dataclass(frozen=True)
class TaggerModel:
    """weights holds a row for every feature seen in training, in
    first-seen order; provenance holds one {"datasets", "epochs",
    "was_continued"} dict per training stage."""

    task: str
    tagset: tuple[str, ...]
    weights: dict[str, dict[int, float]]
    provenance: tuple[dict, ...] = ()


@lru_cache(maxsize=FORM_MEMO_SIZE)
def _form_features(form: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], str, str]:
    """What a word form gives the features of its own token and its neighbours'.

    Returns its flags, its p1= to p4= features, its s1= to s4= features and
    w=, then the nw= feature of the token before it and the pw= feature of
    the token after it.  An empty form gives no flags and no affixes.
    """
    low = form.lower()
    flags = ()
    if form.isupper():
        flags += ("all_caps",)
    if any(map(str.isdigit, form)):
        flags += ("has_digit",)
    if form[:1].isupper():
        flags += ("is_cap",)
    n = min(4, len(low))
    return (flags,
            (f"p1={low[:1]}", f"p2={low[:2]}", f"p3={low[:3]}", f"p4={low[:4]}")[:n],
            (f"s1={low[-1:]}", f"s2={low[-2:]}", f"s3={low[-3:]}", f"s4={low[-4:]}")[:n]
            + (f"w={low}",),
            f"nw={low}", f"pw={low}")


_NW_END = f"nw={END_BOUNDARY}"
_PW_START = f"pw={BOUNDARY}"


def extract_features(sentence: Sentence, index: int, prev_tag: str = BOUNDARY) -> tuple[str, ...]:
    """Deterministic sparse features for one token, in sorted order.

    The features come out in a fixed order that is also their sorted order:
    all_caps, has_digit, is_cap, nw=, p1= to p4=, pt=, pw=, s1= to s4=,
    w=.  Every two of these differ within their first two characters, so
    that order does not depend on the token and no feature repeats.  Only
    pt= is built per call; the rest come from _form_features.  A token with
    an empty form raises IndexError; a neighbour with one gives "nw=" or
    "pw=".

    prev_tag is decoding state: gold previous tag during training (teacher
    forcing), predicted previous tag during greedy decoding.
    """
    tokens = sentence.tokens
    if not 0 <= index < len(tokens):
        raise IndexOutOfRange(f"token index {index} out of range")
    form = tokens[index].form
    if not form:
        raise IndexError("string index out of range")
    flags, prefixes, tail, _, _ = _form_features(form)
    next_word = _form_features(tokens[index + 1].form)[3] if index + 1 < len(tokens) else _NW_END
    prev_word = _form_features(tokens[index - 1].form)[4] if index else _PW_START
    return flags + (next_word,) + prefixes + (f"pt={prev_tag}", prev_word) + tail


def _best_index(tagset: tuple[str, ...], weights: dict[str, dict[int, float]],
                features) -> int:
    """Index of the best-scoring tag; a tie goes to the smallest tag.

    A feature without a weight row, or with an empty one, adds nothing.
    """
    scores = [0.0] * len(tagset)
    for f in features:
        row = weights.get(f)
        if row:
            for t_idx, w in row.items():
                scores[t_idx] += w
    best = max(scores)
    if scores.count(best) == 1:
        return scores.index(best)
    return min((i for i, score in enumerate(scores) if score == best), key=tagset.__getitem__)


def train(corpus, task: str, epochs: int = 5, base: TaggerModel | None = None,
          seed: int = 0, datasets: tuple[str, ...] | None = None) -> TaggerModel:
    """Averaged-perceptron training with greedy decoding and per-epoch shuffling.

    Deterministic given (corpus, task, epochs, base, seed).  When a base
    model is given, its (averaged) weight rows and tagset are the
    starting point and new tags/features are appended, so staged
    training continues rather than restarts.  epochs=0 performs no updates:
    the result predicts exactly like the base (or like a zero-weight model).
    """
    if task not in TASKS or not TASKS[task].tagger:
        raise TaskMismatch(f"unknown tagger task {task!r}")
    if base is not None and base.task != task:
        raise TaskMismatch(f"base model is for {base.task!r}, requested {task!r}")
    if not corpus.sentences:
        raise EmptyCorpus(f"cannot train {task} tagger on empty corpus {corpus.source_name!r}")
    if epochs < 0:
        raise NegativeEpochs(f"epochs must be >= 0, not {epochs}")

    if base is not None:
        tagset = list(base.tagset)
        w = {f: dict(row) for f, row in base.weights.items()}
    else:
        tagset, w = [], {}
    sentences = corpus.sentences
    labels = [list(map(TASKS[task].read, s.tokens)) for s in sentences]
    known = set(tagset)
    for label in sorted({label for sentence_labels in labels for label in sentence_labels}):
        if label not in known:
            tagset.append(label)
            known.add(label)
    tagset_t = tuple(tagset)
    tag_index = {t: i for i, t in enumerate(tagset_t)}
    gold_indices = [[tag_index[label] for label in sentence_labels] for sentence_labels in labels]

    # Lazy averaging: acc[f][t] accumulates sum-over-steps of weight (f, t),
    # flushed at (ts[f][t], now] intervals; untouched weights average to
    # their starting value, which keeps epochs=0 an exact identity on the base.
    acc: dict[str, dict[int, float]] = {}
    ts: dict[str, dict[int, int]] = {}
    step = 0
    # For skipping a rescore: changed[f] is the step at which row f last
    # changed and last_change the step of the latest change to any row;
    # correct_since[s_i][i] is the step at which token i of sentence s_i was
    # last tagged correctly or skipped; -1 stands for never.
    changed = dict.fromkeys(w, -1)
    last_change = -1
    correct_since = [[-1] * len(g) for g in gold_indices]

    rng = random.Random(seed)
    order = list(range(len(sentences)))
    for epoch in range(epochs):
        rng.shuffle(order)
        for s_i in order:
            sentence, sentence_labels = sentences[s_i], labels[s_i]
            since = correct_since[s_i]
            prev = BOUNDARY
            for i, g_idx in enumerate(gold_indices[s_i]):
                feats = extract_features(sentence, i, prev)
                # Teacher forcing gives every epoch the same feature tuples,
                # so epoch 0 meets every feature, in first-seen order.
                if not epoch:
                    for f in feats:
                        if f not in w:
                            w[f] = {}
                            changed[f] = -1
                elif (last_change < since[i]
                      or max(map(changed.__getitem__, feats)) < since[i]):
                    # Same rows as when it was last tagged correctly: a
                    # rescore would give the gold tag again and change nothing.
                    since[i] = step
                    prev = sentence_labels[i]
                    step += 1
                    continue
                p_idx = _best_index(tagset_t, w, feats)
                if p_idx == g_idx:
                    since[i] = step
                else:
                    last_change = step
                    for f in feats:
                        changed[f] = step
                        row = w[f]
                        acc_row = acc.setdefault(f, {})
                        ts_row = ts.setdefault(f, {})
                        for t_idx, delta in ((g_idx, 1.0), (p_idx, -1.0)):
                            value = row.get(t_idx, 0.0)
                            acc_row[t_idx] = (acc_row.get(t_idx, 0.0)
                                              + (step - ts_row.get(t_idx, 0)) * value)
                            ts_row[t_idx] = step
                            row[t_idx] = value + delta
                prev = sentence_labels[i]
                step += 1

    averaged: dict[str, dict[int, float]] = {}
    for f, row in w.items():
        acc_row, ts_row = acc.get(f, {}), ts.get(f, {})
        kept = averaged[f] = {}
        for t_idx, value in row.items():
            if step:
                value = (acc_row.get(t_idx, 0.0) + (step - ts_row.get(t_idx, 0)) * value) / step
            if value != 0.0:
                kept[t_idx] = value

    stage = {
        "datasets": list(datasets) if datasets is not None else [corpus.source_name],
        "epochs": epochs,
        "was_continued": base is not None,
    }
    provenance = (base.provenance if base is not None else ()) + (stage,)
    return TaggerModel(task, tagset_t, averaged, provenance)


def tag(model: TaggerModel, sentence: Sentence) -> list[str]:
    """Greedy left-to-right tagging; one tag per token, always."""
    tagset, weights = model.tagset, model.weights
    tags: list[str] = []
    prev = BOUNDARY
    for i in range(len(sentence.tokens)):
        prev = tagset[_best_index(tagset, weights, extract_features(sentence, i, prev))]
        tags.append(prev)
    return tags


def _weight_rows(weights: dict[str, dict[int, float]], path: str):
    """The weight rows' JSON texts, by feature id (row position), then tag
    index.  Each distinct nonzero weight's repr is made, and checked to be
    finite, once; a zero is written by repr, as 0.0 and -0.0 are one key."""
    texts = {}
    for f_id, (f, row) in enumerate(weights.items()):
        for t, w in sorted(row.items()):
            text = texts.get(w) if w else repr(w)
            if text is None:
                if not isfinite(w):
                    raise MedlatinError(f"{path}: cannot write the weight {w!r} of feature "
                                        f"{f!r}, tag index {t}: not a finite number")
                text = texts[w] = repr(w)
            yield f"[\n{f_id},\n{t},\n{text}\n]"


def save_model(model: TaggerModel, path: str) -> None:
    """Write the model file; a feature's id is its weight row's position.
    A weight that is not finite raises MedlatinError and leaves path as it was."""
    ids = {f: f_id for f_id, f in enumerate(model.weights)}
    write_model_file(path, {
        "format": MODEL_FORMAT,
        "task": model.task,
        "tagset": list(model.tagset),
        "feature_vocabulary": JSONItems((f"{json_string(f)}: {ids[f]}" for f in sorted(ids)),
                                        "{}"),
        "weights": JSONItems(_weight_rows(model.weights, path)),
        "provenance": list(model.provenance),
        "config_metadata": REFERENCE_FINETUNE_CONFIG,
    })


MODEL_SCHEMA = {"task": str, "tagset": list, "feature_vocabulary": dict, "weights": list,
                "provenance": list, "config_metadata": dict}


def load_model(path: str) -> TaggerModel:
    """Read a model file; a malformed one raises MedlatinError naming the path.

    Every tagset label must be one the task can hold (conllu.TASKS), because
    tagging writes it into a CoNLL-U column, and no label may repeat.  The
    vocabulary must number its n features 0..n-1, as save_model writes it,
    because continued training gives each new feature the next id.  Feature
    ids and tag indices must be ints (not floats, strings or booleans);
    none is coerced.  Every weight row must name a feature id from the
    vocabulary, a tag index inside the tagset, because scoring indexes the
    tagset by it, and a finite int or float weight, because save_model
    writes float.__repr__; no (feature id, tag index) pair may repeat.  The
    model gets a row for every feature, in id order; config_metadata must
    be an object and is not kept.
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
    if task not in TASKS or not TASKS[task].tagger:
        raise ValueError(f"unknown tagger task {task!r}")
    tagset = tuple(payload["tagset"])
    if not tagset or not all(isinstance(t, str) for t in tagset):
        raise ValueError("tagset must be a non-empty list of strings")
    if len(set(tagset)) != len(tagset):
        raise ValueError("a label repeats in the tagset")
    for label in tagset:
        TASKS[task].parse(label)
    vocab = payload["feature_vocabulary"]
    feature_of = {f_id: f for f, f_id in vocab.items()}
    for f_id, f in feature_of.items():
        if f_id.__class__ is not int:
            raise ValueError(f"the feature vocabulary gives {f!r} the id {f_id!r}, "
                             "not an integer")
    if feature_of.keys() != set(range(len(vocab))):
        raise ValueError(f"the feature vocabulary must number its {len(vocab)} features "
                         f"0 to {len(vocab) - 1}, each once")
    n_tags = len(tagset)
    weights = {feature_of[f_id]: {} for f_id in range(len(vocab))}
    rows = list(weights.values())
    last = None  # save_model writes each feature id's rows one after another
    for f, t, w in payload["weights"]:
        if f.__class__ is not int or t.__class__ is not int:
            raise ValueError(f"weight row {[f, t, w]}: the feature id and the tag index "
                             "must be integers")
        if f != last:
            if f not in feature_of:
                raise ValueError(f"weight row {[f, t, w]}: feature id {f} is not in the vocabulary")
            row = rows[f]
            last = f
        if not 0 <= t < n_tags:
            raise ValueError(f"weight row {[f, t, w]}: tag index {t} is outside "
                             f"the tagset of {n_tags} tags")
        if w.__class__ is not float or not isfinite(w):
            w = _finite_weight(f, t, w)
        row[t] = w
    if sum(map(len, rows)) != len(payload["weights"]):
        raise ValueError("a (feature id, tag index) weight row repeats")
    provenance = read_provenance(payload["provenance"], ("datasets", "epochs", "was_continued"))
    return TaggerModel(task, tagset, weights, provenance)
