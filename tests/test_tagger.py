import json
import os
import random
import tempfile
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medlatin.conllu import TASKS, concat_documents
from medlatin.errors import EmptyCorpus, MedlatinError
from medlatin.registry import load_dataset, load_registry
from medlatin.tagger import (BOUNDARY, END_BOUNDARY, FORM_MEMO_SIZE, MODEL_FORMAT,
                             REFERENCE_FINETUNE_CONFIG, IndexOutOfRange, NegativeEpochs,
                             TaskMismatch, _best_index, _form_features, extract_features,
                             load_model, save_model, tag, train)
from medlatin.tagger import TaggerModel as FeatureMajorModel

from conftest import MINI_REGISTRY, sent, simple_doc, tok


def all_tags(model, corpus):
    return [tag(model, s) for s in corpus.sentences]


def gold_tags(corpus, task="upos"):
    if task == "upos":
        return [[t.upos for t in s.tokens] for s in corpus.sentences]
    return [[t.feats_string() for t in s.tokens] for s in corpus.sentences]


def test_features_capitalized_and_suffix():
    s = sent(tok(1, "Cracoviae", "cracovia", "PROPN"))
    feats = extract_features(s, 0)
    assert "is_cap" in feats
    assert "s3=iae" in feats
    assert "w=cracoviae" in feats


def test_features_boundary_markers():
    s = sent(tok(1, "arma", "arma", "NOUN"), tok(2, "cano", "cano", "VERB"))
    first = extract_features(s, 0)
    assert f"pw={BOUNDARY}" in first
    assert "nw=cano" in first
    last = extract_features(s, 1)
    assert "pw=arma" in last
    assert "nw=</s>" in last


def test_features_digit_flag():
    s = sent(tok(1, "1amXI", "_", "SYM"))
    assert "has_digit" in extract_features(s, 0)
    assert "all_caps" not in extract_features(s, 0)


def test_features_index_out_of_range():
    s = sent(tok(1, "arma", "arma", "NOUN"))
    with pytest.raises(IndexOutOfRange):
        extract_features(s, 1)


def test_features_sorted_deduplicated():
    s = sent(tok(1, "a", "a", "NOUN"))
    feats = extract_features(s, 0)
    assert list(feats) == sorted(set(feats))


# Reference implementation: the set-and-sort feature extractor that the
# fixed-order tuple replaced.  extract_features must return exactly its tuple.

def set_sort_extract_features(sentence, index, prev_tag=BOUNDARY):
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


# Upper and lower case, ASCII digits, "²" (a digit but not decimal), "٣" (a
# decimal digit), and "İ", whose lower() is two characters long.
FORM = st.text("aAeEzZß09²٣İ=|", min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(forms=st.lists(FORM, min_size=1, max_size=4), prev_tag=st.text(max_size=6))
@example(forms=["İİİİİ", "Ab"], prev_tag="a=b|c")
def test_extract_features_matches_set_and_sort_reference(forms, prev_tag):
    s = sent(*(tok(i + 1, form) for i, form in enumerate(forms)))
    for index in range(-1, len(forms) + 1):
        if 0 <= index < len(forms):
            assert extract_features(s, index, prev_tag) == set_sort_extract_features(
                s, index, prev_tag)
        else:
            with pytest.raises(IndexOutOfRange):
                extract_features(s, index, prev_tag)


# Reference implementation: the fixed-order extractor that built every
# feature string on every call, before _form_features memoized them per form.

def per_call_extract_features(sentence, index, prev_tag=BOUNDARY):
    tokens = sentence.tokens
    if not 0 <= index < len(tokens):
        raise IndexOutOfRange(f"token index {index} out of range")
    form = tokens[index].form
    low = form.lower()
    flags = ()
    if form.isupper():
        flags += ("all_caps",)
    if any(map(str.isdigit, form)):
        flags += ("has_digit",)
    if form[0].isupper():
        flags += ("is_cap",)
    n = min(4, len(low))
    next_form = tokens[index + 1].form.lower() if index + 1 < len(tokens) else END_BOUNDARY
    prev_form = tokens[index - 1].form.lower() if index > 0 else BOUNDARY
    return (flags + (f"nw={next_form}",)
            + (f"p1={low[:1]}", f"p2={low[:2]}", f"p3={low[:3]}", f"p4={low[:4]}")[:n]
            + (f"pt={prev_tag}", f"pw={prev_form}")
            + (f"s1={low[-1:]}", f"s2={low[-2:]}", f"s3={low[-3:]}", f"s4={low[-4:]}")[:n]
            + (f"w={low}",))


def outcome(extract, sentence, index, prev_tag):
    """The features extract returns, or the type and arguments of what it raises."""
    try:
        return extract(sentence, index, prev_tag)
    except Exception as exc:
        return type(exc), exc.args


def assert_matches_per_call_reference(s, prev_tag):
    for index in range(-1, len(s.tokens) + 1):
        assert (outcome(extract_features, s, index, prev_tag)
                == outcome(per_call_extract_features, s, index, prev_tag))


@settings(max_examples=300, deadline=None)
@given(forms=st.lists(st.text("aAeEzZß09²٣İ=|", max_size=6), min_size=1, max_size=4),
       prev_tag=st.text(max_size=6))
@example(forms=["", "a"], prev_tag="NOUN")  # an empty form raises; as a neighbour it does not
@example(forms=["a", "", "B"], prev_tag="NOUN")
def test_extract_features_matches_per_call_reference_cold_and_warm(forms, prev_tag):
    s = sent(*(tok(i + 1, form) for i, form in enumerate(forms)))
    _form_features.cache_clear()
    assert_matches_per_call_reference(s, prev_tag)  # cold: each form misses once
    misses = _form_features.cache_info().misses
    assert_matches_per_call_reference(s, prev_tag)  # warm: every lookup hits
    assert _form_features.cache_info().misses == misses


def test_extract_features_matches_per_call_reference_through_eviction():
    forms = [f"Form{i}" for i in range(FORM_MEMO_SIZE + 500)]
    s = sent(*(tok(i + 1, form) for i, form in enumerate(forms)))
    _form_features.cache_clear()
    for _ in range(2):  # the second pass asks again for the forms the first evicted
        assert_matches_per_call_reference(s, "NOUN")
    info = _form_features.cache_info()
    assert info.currsize == FORM_MEMO_SIZE
    assert info.misses > len(forms)  # some form was looked up again after its eviction


@pytest.mark.parametrize("task", ["upos", "ufeats"])
def test_training_and_tagging_do_not_depend_on_the_memo(tmp_path, task):
    registry = load_registry(MINI_REGISTRY)
    corpus = concat_documents([load_dataset(registry, name) for name in registry.names()], "mini")
    results = []
    for clear in (True, False):  # a cold memo, then the one the first pass left
        if clear:
            _form_features.cache_clear()
        model = train(corpus, task, epochs=3, seed=4)
        path = tmp_path / f"{clear}.json"
        save_model(model, str(path))
        results.append((path.read_bytes(), model.weights, all_tags(model, corpus)))
    assert results[0] == results[1]


def test_toy_corpus_converges_to_100_within_10_epochs(toy_corpus):
    model = train(toy_corpus, "upos", epochs=10, seed=1)
    assert all_tags(model, toy_corpus) == gold_tags(toy_corpus)


def test_training_is_deterministic(toy_corpus):
    a = train(toy_corpus, "upos", epochs=3, seed=42)
    b = train(toy_corpus, "upos", epochs=3, seed=42)
    assert a == b


def test_different_seed_may_differ_but_still_deterministic(toy_corpus):
    a = train(toy_corpus, "upos", epochs=2, seed=1)
    b = train(toy_corpus, "upos", epochs=2, seed=1)
    assert a.weights == b.weights


def test_ufeats_task_uses_composite_labels(toy_corpus):
    model = train(toy_corpus, "ufeats", epochs=10, seed=1)
    assert set(model.tagset) == {"Case=Nom", "Tense=Pres", "Degree=Pos", "_"}
    assert all_tags(model, toy_corpus) == gold_tags(toy_corpus, "ufeats")


def test_tagset_union_on_continued_training():
    a = simple_doc([[("aqua", "aqua", "NOUN"), ("currit", "curro", "VERB")]])
    b = simple_doc([[("bonus", "bonus", "ADJ")]])
    base = train(a, "upos", epochs=2, seed=0)
    continued = train(b, "upos", epochs=2, base=base, seed=0)
    assert set(continued.tagset) == {"NOUN", "VERB", "ADJ"}
    assert continued.tagset[:len(base.tagset)] == base.tagset


def test_zero_epochs_no_base_predicts_tiebreak_tag():
    corpus = simple_doc([[("aqua", "aqua", "NOUN"), ("bonus", "bonus", "ADJ")]])
    model = train(corpus, "upos", epochs=0, seed=0)
    assert model.weights == {}
    assert tag(model, corpus.sentences[0]) == ["ADJ", "ADJ"]


def test_continued_zero_epochs_is_prediction_identity(toy_corpus):
    base = train(toy_corpus, "upos", epochs=4, seed=9)
    continued = train(toy_corpus, "upos", epochs=0, base=base, seed=9)
    assert all_tags(continued, toy_corpus) == all_tags(base, toy_corpus)
    assert continued.weights == base.weights


def test_output_length_matches_token_count(toy_corpus):
    model = train(toy_corpus, "upos", epochs=1, seed=0)
    for s in toy_corpus.sentences[:20]:
        assert len(tag(model, s)) == len(s.tokens)


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        train(simple_doc([]), "upos", epochs=1)


def test_task_mismatch_on_base():
    corpus = simple_doc([[("aqua", "aqua", "NOUN")]])
    base = train(corpus, "upos", epochs=1)
    with pytest.raises(TaskMismatch):
        train(corpus, "ufeats", epochs=1, base=base)


def test_provenance_records_stages():
    a = simple_doc([[("aqua", "aqua", "NOUN")]], name="corpus_a")
    b = simple_doc([[("bonus", "bonus", "ADJ")]], name="corpus_b")
    base = train(a, "upos", epochs=2, seed=0)
    continued = train(b, "upos", epochs=3, base=base, seed=0)
    assert [s["datasets"] for s in continued.provenance] == [["corpus_a"], ["corpus_b"]]
    assert [s["was_continued"] for s in continued.provenance] == [False, True]
    assert [s["epochs"] for s in continued.provenance] == [2, 3]


def test_config_metadata_recorded(tmp_path):
    corpus = simple_doc([[("aqua", "aqua", "NOUN")]])
    base = train(corpus, "upos", epochs=1)
    path = tmp_path / "tagger.json"
    for model in (base, train(corpus, "upos", epochs=1, base=base)):
        save_model(model, str(path))
        assert json.loads(path.read_text(encoding="utf-8"))["config_metadata"] == {
            "batch_size": 12, "epochs": 10, "learning_rate": 2e-5, "sequence_length": 256}


def test_every_seen_feature_keeps_a_row(toy_corpus):
    """Even a feature with no weight left keeps its row, empty, and so its id."""
    model = train(toy_corpus, "upos", epochs=3, seed=5)
    seen = set()
    for sentence in toy_corpus.sentences:
        prev = BOUNDARY
        for i, token in enumerate(sentence.tokens):
            seen.update(extract_features(sentence, i, prev))
            prev = token.upos
    assert model.weights.keys() == seen
    assert any(not row for row in model.weights.values())


def test_model_file_roundtrip(tmp_path, toy_corpus):
    model = train(toy_corpus, "upos", epochs=2, seed=5)
    path = str(tmp_path / "tagger.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert all_tags(loaded, toy_corpus) == all_tags(model, toy_corpus)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == "medlatin-tagger/1"


def test_model_files_identical_for_identical_training(tmp_path, toy_corpus):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(train(toy_corpus, "upos", epochs=2, seed=5), p1)
    save_model(train(toy_corpus, "upos", epochs=2, seed=5), p2)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_closed_set_prediction(toy_corpus):
    model = train(toy_corpus, "ufeats", epochs=3, seed=2)
    unseen = sent(tok(1, "zzzq", "zzzq", "NOUN"), tok(2, "wwwt", "wwwo", "VERB"))
    for label in tag(model, unseen):
        assert label in model.tagset


# Reference implementation: the flat (feature, tag) -> weight layout that the
# feature-major rows replaced, with the feature vocabulary the model kept
# until feature ids came to be worked out at save.  The differential tests
# below require the production scorer, trainer and model files to match it
# exactly.

class TrainingStage(NamedTuple):
    datasets: tuple[str, ...]
    epochs: int
    was_continued: bool


class TaggerModel(NamedTuple):
    task: str
    tagset: tuple[str, ...]
    feature_vocabulary: dict[str, int]
    weights: dict[tuple[int, int], float]
    provenance: tuple[TrainingStage, ...]
    config_metadata: dict


def flat_best_tag(tagset, weights, feature_ids):
    best_idx = 0
    best_score = None
    for t_idx in range(len(tagset)):
        score = 0.0
        for f_id in feature_ids:
            w = weights.get((f_id, t_idx))
            if w is not None:
                score += w
        if (best_score is None or score > best_score
                or (score == best_score and tagset[t_idx] < tagset[best_idx])):
            best_score = score
            best_idx = t_idx
    return tagset[best_idx]


def flat_train(corpus, task, epochs, base=None, seed=0):
    if base is not None:
        tagset, vocab, w = list(base.tagset), dict(base.feature_vocabulary), dict(base.weights)
    else:
        tagset, vocab, w = [], {}, {}
    read = TASKS[task].read
    for label in sorted({read(t) for s in corpus.sentences for t in s.tokens}):
        if label not in tagset:
            tagset.append(label)
    tagset_t = tuple(tagset)
    tag_index = {t: i for i, t in enumerate(tagset_t)}
    acc, ts, step = {}, {}, 0

    def bump(key, delta):
        acc[key] = acc.get(key, 0.0) + (step - ts.get(key, 0)) * w.get(key, 0.0)
        ts[key] = step
        w[key] = w.get(key, 0.0) + delta

    rng = random.Random(seed)
    order = list(range(len(corpus.sentences)))
    for _ in range(epochs):
        rng.shuffle(order)
        for s_i in order:
            sentence = corpus.sentences[s_i]
            prev = BOUNDARY
            for i in range(len(sentence.tokens)):
                ids = [vocab.setdefault(f, len(vocab)) for f in extract_features(sentence, i, prev)]
                gold = read(sentence.tokens[i])
                pred = flat_best_tag(tagset_t, w, ids)
                if pred != gold:
                    for f_id in ids:
                        bump((f_id, tag_index[gold]), 1.0)
                        bump((f_id, tag_index[pred]), -1.0)
                prev = gold
                step += 1
    if step == 0:
        averaged = dict(w)
    else:
        averaged = {k: (acc.get(k, 0.0) + (step - ts.get(k, 0)) * v) / step for k, v in w.items()}
    averaged = {k: v for k, v in averaged.items() if v != 0.0}
    stage = TrainingStage((corpus.source_name,), epochs, base is not None)
    provenance = (base.provenance if base is not None else ()) + (stage,)
    return TaggerModel(task, tagset_t, vocab, averaged, provenance,
                       dict(REFERENCE_FINETUNE_CONFIG))


def flat_save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "task": model.task,
        "tagset": list(model.tagset),
        "feature_vocabulary": model.feature_vocabulary,
        "weights": [[f, t, w] for (f, t), w in sorted(model.weights.items())],
        "provenance": [
            {"datasets": list(s.datasets), "epochs": s.epochs, "was_continued": s.was_continued}
            for s in model.provenance
        ],
        "config_metadata": model.config_metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=0, sort_keys=True)
        fh.write("\n")


WEIGHT = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 2.0]),
                   st.floats(-8.0, 8.0, allow_nan=False))


@st.composite
def scoring_cases(draw):
    tagset = tuple(draw(st.lists(st.text("ABab=|_", min_size=1, max_size=3),
                                 min_size=1, max_size=10, unique=True)))
    n_features = draw(st.integers(1, 12))
    keys = st.tuples(st.integers(0, n_features - 1), st.integers(0, len(tagset) - 1))
    flat = draw(st.dictionaries(keys, WEIGHT, max_size=40))
    ids = draw(st.lists(st.integers(0, n_features + 2), unique=True, max_size=n_features))
    return tagset, flat, ids


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
# Summation order decides this case: in feature order 0.1 + 0.2 + 0.3 is
# just above 0.6 and "B" wins; added in reverse it is exactly 0.6, a tie
# that "A" wins.
@example((("B", "A"), {(0, 0): 0.1, (1, 0): 0.2, (2, 0): 0.3, (0, 1): 0.6}, [0, 1, 2]))
def test_feature_major_scoring_matches_flat_reference(case):
    tagset, flat, ids = case
    rows = {}
    for (f, t), w in flat.items():
        rows.setdefault(f, {})[t] = w
    assert tagset[_best_index(tagset, rows, ids)] == flat_best_tag(tagset, flat, ids)


def mini_dataset(name):
    return load_dataset(load_registry(MINI_REGISTRY), name)


@pytest.mark.parametrize("task", ["upos", "ufeats"])
def test_training_and_model_files_match_flat_reference(tmp_path, task):
    alpha, beta = mini_dataset("ud_alpha"), mini_dataset("ud_beta")
    base = train(alpha, task, epochs=3, seed=4)
    flat_base = flat_train(alpha, task, epochs=3, seed=4)
    staged = train(beta, task, epochs=2, base=base, seed=5)
    flat_staged = flat_train(beta, task, epochs=2, base=flat_base, seed=5)
    for model, flat_model in ((base, flat_base), (staged, flat_staged)):
        new_path, flat_path = tmp_path / "new.json", tmp_path / "flat.json"
        save_model(model, str(new_path))
        flat_save_model(flat_model, str(flat_path))
        assert new_path.read_bytes() == flat_path.read_bytes()


def flat_tag(model, sentence):
    tags, prev = [], BOUNDARY
    for i in range(len(sentence.tokens)):
        ids = [model.feature_vocabulary.get(f) for f in extract_features(sentence, i, prev)]
        prev = flat_best_tag(model.tagset, model.weights, ids)
        tags.append(prev)
    return tags


FORMS = st.text("aAbcé1", min_size=1, max_size=5)
TOKEN_ROWS = st.tuples(FORMS, st.just("_"), st.sampled_from(["NOUN", "VERB", "ADJ"]),
                       st.sampled_from(["_", "Case=Nom", "Case=Acc|Number=Sing"]))
CORPUS_ROWS = st.lists(st.lists(TOKEN_ROWS, min_size=1, max_size=5), min_size=1, max_size=5)


@pytest.mark.parametrize("task", ["upos", "ufeats"])
@settings(max_examples=40, deadline=None)
@given(alpha_rows=CORPUS_ROWS, beta_rows=CORPUS_ROWS, epochs=st.tuples(
    st.integers(0, 3), st.integers(0, 3)), seeds=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_one_and_two_stage_training_match_flat_reference(task, alpha_rows, beta_rows, epochs,
                                                         seeds):
    alpha, beta = simple_doc(alpha_rows, name="alpha"), simple_doc(beta_rows, name="beta")
    base = train(alpha, task, epochs=epochs[0], seed=seeds[0])
    flat_base = flat_train(alpha, task, epochs=epochs[0], seed=seeds[0])
    staged = train(beta, task, epochs=epochs[1], base=base, seed=seeds[1])
    flat_staged = flat_train(beta, task, epochs=epochs[1], base=flat_base, seed=seeds[1])
    with tempfile.TemporaryDirectory() as tmp:
        new_path, flat_path = os.path.join(tmp, "new.json"), os.path.join(tmp, "flat.json")
        for model, flat_model in ((base, flat_base), (staged, flat_staged)):
            save_model(model, new_path)
            flat_save_model(flat_model, flat_path)
            with open(new_path, "rb") as new, open(flat_path, "rb") as flat:
                assert new.read() == flat.read()
            for sentence in alpha.sentences + beta.sentences:
                assert tag(model, sentence) == flat_tag(flat_model, sentence)


# Reference implementation: train as it was before it learned to skip a
# token whose weight rows have not changed since it was last tagged
# correctly, its loop kept verbatim (it scores every token in every epoch)
# and its argument checks left out.  train must return exactly its model,
# row order included.

def rescoring_train(corpus, task, epochs=5, base=None, seed=0, datasets=None):
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

    rng = random.Random(seed)
    order = list(range(len(sentences)))
    for epoch in range(epochs):
        rng.shuffle(order)
        for s_i in order:
            sentence, sentence_labels = sentences[s_i], labels[s_i]
            prev = BOUNDARY
            for i, g_idx in enumerate(gold_indices[s_i]):
                feats = extract_features(sentence, i, prev)
                # Teacher forcing gives every epoch the same feature tuples,
                # so epoch 0 meets every feature, in first-seen order.
                if not epoch:
                    for f in feats:
                        if f not in w:
                            w[f] = {}
                p_idx = _best_index(tagset_t, w, feats)
                if p_idx != g_idx:
                    for f in feats:
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
    return FeatureMajorModel(task, tagset_t, averaged, provenance)


def assert_same_training(corpus, task, epochs, base, seed, tmp_dir):
    model = train(corpus, task, epochs=epochs, base=base, seed=seed)
    reference = rescoring_train(corpus, task, epochs=epochs, base=base, seed=seed)
    assert list(model.weights.items()) == list(reference.weights.items())
    assert (model.task, model.tagset, model.provenance) == (
        reference.task, reference.tagset, reference.provenance)
    new_path, reference_path = os.path.join(tmp_dir, "new.json"), os.path.join(tmp_dir, "ref.json")
    save_model(model, new_path)
    save_model(reference, reference_path)
    with open(new_path, "rb") as new, open(reference_path, "rb") as ref:
        assert new.read() == ref.read()
    return model


@pytest.mark.parametrize("task", ["upos", "ufeats"])
@pytest.mark.parametrize("epochs", [0, 1, 5])
def test_training_matches_rescoring_reference_on_mini_treebanks(tmp_path, task, epochs):
    """As the grid stages it: a model on every UD treebank, then one
    continued on a genre, at several seeds."""
    registry = load_registry(MINI_REGISTRY)
    ud = concat_documents([load_dataset(registry, name) for name in ("ud_alpha", "ud_beta")],
                          "ud_alpha+ud_beta")
    for seed in (0, 1, 7):
        base = assert_same_training(ud, task, epochs, None, seed, str(tmp_path))
        for genre in ("Annals", "Science"):
            assert_same_training(load_dataset(registry, genre), task, epochs, base, seed + 1,
                                 str(tmp_path))


@settings(max_examples=150, deadline=None)
@given(task=st.sampled_from(["upos", "ufeats"]), base_rows=st.none() | CORPUS_ROWS,
       rows=CORPUS_ROWS, epochs=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       seeds=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_training_matches_rescoring_reference(task, base_rows, rows, epochs, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        base = None
        if base_rows is not None:
            base = assert_same_training(simple_doc(base_rows, name="base"), task, epochs[0],
                                        None, seeds[0], tmp)
        assert_same_training(simple_doc(rows, name="corpus"), task, epochs[1], base, seeds[1],
                             tmp)


def test_training_rescores_only_tokens_whose_rows_changed(monkeypatch, toy_corpus):
    scored = []
    monkeypatch.setattr("medlatin.tagger._best_index",
                        lambda *args: scored.append(args) or _best_index(*args))
    model = train(toy_corpus, "upos", epochs=10, seed=1)
    tokens = sum(len(s.tokens) for s in toy_corpus.sentences)
    # Epoch 0 scores every token; the nine epochs after it, which converge,
    # rescore fewer tokens between them than one epoch holds.
    assert tokens < len(scored) < 2 * tokens
    assert model == rescoring_train(toy_corpus, "upos", epochs=10, seed=1)


def test_negative_epochs_is_a_named_error(toy_corpus):
    with pytest.raises(NegativeEpochs, match=r"^epochs must be >= 0, not -1$"):
        train(toy_corpus, "upos", epochs=-1)


def test_save_model_writes_signed_zeros_and_float_reprs_like_json(tmp_path, toy_corpus):
    model = train(toy_corpus, "upos", epochs=1, seed=0)
    rows = [[0, 0, -0.0], [0, 1, 0.0], [1, 0, 0.0], [1, 1, -0.0], [2, 0, 0.1 + 0.2],
            [2, 1, 0.3], [3, 0, 0.30000000000000004], [3, 1, 1e-05], [4, 0, 1e300]]
    path, reference = tmp_path / "model.json", tmp_path / "reference.json"
    save_model(model, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["weights"] = rows
    path.write_text(json.dumps(payload), encoding="utf-8")
    save_model(load_model(str(path)), str(path))
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=0, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == reference.read_bytes()


def test_staged_ufeats_model_roundtrip_is_exact(tmp_path):
    base = train(mini_dataset("ud_alpha"), "ufeats", epochs=3, seed=1)
    staged = train(mini_dataset("Annals"), "ufeats", epochs=2, base=base, seed=2)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(staged, str(first))
    loaded = load_model(str(first))
    assert loaded == staged
    save_model(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def _set(key, value):
    return lambda payload: payload.__setitem__(key, value)


def _set_label(label):
    """Replace the last tagset label, so every weight row stays in range."""
    return lambda payload: payload["tagset"].__setitem__(-1, label)


def _duplicate_feature_id(payload):
    """Add a feature with an id already taken, leaving every id in use."""
    vocab = payload["feature_vocabulary"]
    vocab["not-a-feature"] = vocab[min(vocab)]


def _shift_feature_ids(payload):
    """Shift every feature id up by the vocabulary's size; the weight rows follow."""
    n = len(payload["feature_vocabulary"])
    payload["feature_vocabulary"] = {f: f_id + n for f, f_id in
                                     payload["feature_vocabulary"].items()}
    payload["weights"] = [[f + n, t, w] for f, t, w in payload["weights"]]


def _move_feature_id_past_end(payload):
    """Give the feature with id 0 the id n, one past the end; its rows follow."""
    vocab = payload["feature_vocabulary"]
    n = len(vocab)
    vocab[min(vocab, key=vocab.get)] = n
    payload["weights"] = [[n if f == 0 else f, t, w] for f, t, w in payload["weights"]]


def _stage(**values):
    """Give the first provenance stage these values."""
    return lambda payload: payload["provenance"][0].update(values)


def _set_weights(row):
    """row(payload) -> one weight row that breaks the model."""
    return lambda payload: payload.__setitem__("weights", [row(payload)])


MALFORMED = {
    "missing-weights": lambda payload: payload.pop("weights"),
    "missing-tagset": lambda payload: payload.pop("tagset"),
    "tagset-is-string": _set("tagset", "NOUN"),
    "weights-is-dict": _set("weights", {}),
    "vocabulary-is-list": _set("feature_vocabulary", []),
    "vocabulary-duplicate-id": _duplicate_feature_id,
    "vocabulary-ids-shifted": _shift_feature_ids,
    "vocabulary-id-past-end": _move_feature_id_past_end,
    "empty-tagset": _set("tagset", []),
    "unknown-task": _set("task", "deps"),
    "lemma-task": _set("task", "lemma"),
    "upos-label-not-a-tag": _set_label("BOGUS\tX"),
    "upos-label-lowercase": _set_label("noun"),
    "stage-missing-epochs": _set("provenance", [{"datasets": [], "was_continued": False}]),
    "stage-is-string": _set("provenance", ["x"]),
    "stage-datasets-is-string": _stage(datasets="ud"),
    "stage-dataset-not-string": _stage(datasets=["ud", 1]),
    "stage-epochs-is-string": _stage(epochs="5"),
    "stage-epochs-is-bool": _stage(epochs=True),
    "stage-epochs-is-float": _stage(epochs=5.0),
    "stage-was-continued-is-string": _stage(was_continued="no"),
    "stage-was-continued-is-int": _stage(was_continued=0),
    "short-weight-row": _set_weights(lambda payload: [0, 0]),
    "tag-index-past-end": _set_weights(lambda payload: [0, len(payload["tagset"]), 1.0]),
    "negative-tag-index": _set_weights(lambda payload: [0, -1, 1.0]),
    "unknown-feature-id": _set_weights(
        lambda payload: [len(payload["feature_vocabulary"]), 0, 1.0]),
    "infinite-weight": _set_weights(lambda payload: [0, 0, float("inf")]),
    "negative-infinite-weight": _set_weights(lambda payload: [0, 0, float("-inf")]),
    "nan-weight": _set_weights(lambda payload: [0, 0, float("nan")]),
    "string-weight": _set_weights(lambda payload: [0, 0, "1.0"]),
    "boolean-weight": _set_weights(lambda payload: [0, 0, True]),
    "null-weight": _set_weights(lambda payload: [0, 0, None]),
    "overflowing-int-weight": _set_weights(lambda payload: [0, 0, 10 ** 400]),
    # Cases named ufeats-* edit a ufeats model, the others a upos model.
    "ufeats-label-not-key-value": _set_label("Case"),
    "ufeats-label-empty-value": _set_label("Case="),
    "ufeats-label-duplicate-key": _set_label("Case=Nom|Case=Acc"),
    "ufeats-label-unsorted": _set_label("Number=Sing|Case=Nom"),
    "ufeats-label-with-tab": _set_label("Case=Nom\tX"),
    "ufeats-label-empty": _set_label(""),
}


def write_edited(path, corpus, edit, task="upos"):
    save_model(train(corpus, task, epochs=1, seed=0), str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_model_rejects_malformed_file(tmp_path, toy_corpus, case):
    path = tmp_path / "tagger.json"
    task = "ufeats" if case.startswith("ufeats-") else "upos"
    write_edited(path, toy_corpus, MALFORMED[case], task)
    with pytest.raises(MedlatinError, match="tagger.json"):
        load_model(str(path))


@pytest.mark.parametrize("case", ["vocabulary-duplicate-id", "vocabulary-ids-shifted",
                                  "vocabulary-id-past-end"])
def test_load_model_rejects_vocabulary_not_numbered_from_zero(tmp_path, toy_corpus, case):
    path = tmp_path / "tagger.json"
    write_edited(path, toy_corpus, MALFORMED[case])
    with pytest.raises(MedlatinError, match=r"tagger\.json: malformed model \(the feature "
                       r"vocabulary must number its \d+ features 0 to \d+, each once\)$"):
        load_model(str(path))


@pytest.mark.parametrize("task, label", [("upos", "_"), ("upos", "SYM"), ("ufeats", "_"),
                                         ("ufeats", "Mood=Ind|VerbForm=Fin"),
                                         ("ufeats", "Foreign=Yes|Typo=A=B")])
def test_load_model_accepts_labels_its_task_can_hold(tmp_path, toy_corpus, task, label):
    path = tmp_path / "tagger.json"
    write_edited(path, toy_corpus, _set_label(label), task)
    assert load_model(str(path)).tagset[-1] == label


def test_load_model_reads_weight_rows_in_any_order(tmp_path, toy_corpus):
    path = tmp_path / "tagger.json"
    save_model(train(toy_corpus, "ufeats", epochs=2, seed=0), str(path))
    model = load_model(str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    random.Random(0).shuffle(payload["weights"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_model(str(path)) == model


def test_load_model_rejects_truncated_file(tmp_path, toy_corpus):
    path = tmp_path / "tagger.json"
    save_model(train(toy_corpus, "upos", epochs=1, seed=0), str(path))
    path.write_bytes(path.read_bytes()[:200])
    with pytest.raises(MedlatinError, match="tagger.json: not a JSON file"):
        load_model(str(path))
