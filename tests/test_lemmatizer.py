import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin.conllu import Document
from medlatin.errors import EmptyCorpus, MedlatinError
from medlatin.lemmatizer import (MAX_SUFFIX_KEY, MODEL_FORMAT, REFERENCE_SEQ2SEQ_CONFIG,
                                 EditScript, LemmaQuery, ScriptIncompatible, apply_edit_script,
                                 derive_edit_script, lemmatize, load_model, parse_wire_query,
                                 save_model, train_lemmatizer)
from medlatin.registry import load_dataset, load_registry

from conftest import MINI_REGISTRY, simple_doc


def test_derive_suffix_script():
    script = derive_edit_script("adducam", "adduco")
    assert script == EditScript(strip_suffix_len=2, suffix_add="o")
    assert apply_edit_script(script, "adducam") == "adduco"


def test_derive_identity():
    script = derive_edit_script("rex", "rex")
    assert script == EditScript()
    assert apply_edit_script(script, "templum") == "templum"


def test_derive_civitatem():
    script = derive_edit_script("civitatem", "civitas")
    assert script == EditScript(strip_suffix_len=3, suffix_add="s")


def test_suffix_script_generalizes():
    script = derive_edit_script("adducam", "adduco")
    assert apply_edit_script(script, "laudam") == "laudo"


def test_derive_prefix_script():
    script = derive_edit_script("knosco", "gnosco")
    assert script == EditScript(strip_prefix_len=1, prefix_add="g")
    assert apply_edit_script(script, "knosco") == "gnosco"


def test_derive_interior_script():
    script = derive_edit_script("gracia", "gratia")
    assert script.interior_edits == ((3, "c", "t"),)
    assert apply_edit_script(script, "gracia") == "gratia"


def test_apply_incompatible_strip():
    with pytest.raises(ScriptIncompatible):
        apply_edit_script(EditScript(strip_suffix_len=9), "rex")


def test_apply_incompatible_interior():
    script = EditScript(interior_edits=((1, "xy", "z"),))
    with pytest.raises(ScriptIncompatible):
        apply_edit_script(script, "abc")


@settings(max_examples=1000, deadline=None)
@given(form=st.text(max_size=20), lemma=st.text(max_size=20))
def test_inverse_property_random_pairs(form, lemma):
    assert apply_edit_script(derive_edit_script(form, lemma), form) == lemma


def _fixture_corpus():
    return simple_doc([
        [("adducam", "adduco", "VERB"), ("terram", "terra", "NOUN")],
        [("aquam", "aqua", "NOUN"), ("CD", "_", "SYM")],
        [("adducam", "adduco", "VERB"), ("uitam", "uita", "NOUN")],
    ], name="fixture")


def test_lexicon_memorization():
    model = train_lemmatizer(_fixture_corpus())
    assert lemmatize(model, LemmaQuery("adducam", "VERB")) == "adduco"
    assert lemmatize(model, LemmaQuery("Adducam", "VERB")) == "adduco"


def test_sym_always_underscore():
    model = train_lemmatizer(_fixture_corpus())
    assert lemmatize(model, LemmaQuery("CD", "SYM")) == "_"
    assert lemmatize(model, LemmaQuery("neverseen", "SYM")) == "_"


def test_sym_tokens_excluded_from_lexicon_and_scripts():
    corpus = simple_doc([[("AB", "_", "SYM"), ("CD", "_", "SYM")]])
    model = train_lemmatizer(corpus)
    assert model.lexicon == {}
    assert model.scripts == {}


def test_suffix_cascade_with_upos():
    corpus = simple_doc([
        [("terram", "terra", "NOUN"), ("aquam", "aqua", "NOUN")],
    ])
    model = train_lemmatizer(corpus)
    assert lemmatize(model, LemmaQuery("portam", "NOUN")) == "porta"


def test_suffix_cascade_without_upos_constraint():
    corpus = simple_doc([[("terram", "terra", "NOUN")]])
    model = train_lemmatizer(corpus)
    # no VERB data at all: falls through to the upos-agnostic suffix pool
    assert lemmatize(model, LemmaQuery("portam", "VERB")) == "porta"


def test_fallback_returns_lowercased_form():
    corpus = simple_doc([[("terram", "terra", "NOUN")]])
    model = train_lemmatizer(corpus)
    assert lemmatize(model, LemmaQuery("Zzz", "NOUN")) == "zzz"


def test_lexicon_majority_wins():
    corpus = simple_doc([
        [("forte", "fortis", "ADJ")],
        [("forte", "fortis", "ADJ")],
        [("forte", "forte", "ADV")],
    ])
    model = train_lemmatizer(corpus)
    assert lemmatize(model, LemmaQuery("forte", "ADJ")) == "fortis"
    assert lemmatize(model, LemmaQuery("forte", "ADV")) == "forte"


def test_lexicon_tie_breaks_lexicographically():
    corpus = simple_doc([
        [("malum", "malum", "NOUN")],
        [("malum", "malus", "NOUN")],
    ])
    model = train_lemmatizer(corpus)
    assert lemmatize(model, LemmaQuery("malum", "NOUN")) == "malum"


def test_staged_training_merges_counts():
    a = simple_doc([[("adducam", "adduco", "VERB")]], name="a")
    b = simple_doc([[("adducam", "adduco", "VERB")]], name="b")
    base = train_lemmatizer(a)
    merged = train_lemmatizer(b, base=base)
    assert merged.lexicon[("adducam", "VERB")] == {"adduco": 2}
    assert [s["was_continued"] for s in merged.provenance] == [False, True]


def test_staged_training_empty_second_corpus_identity():
    base = train_lemmatizer(_fixture_corpus())
    continued = train_lemmatizer(simple_doc([], name="empty"), base=base)
    assert continued.lexicon == base.lexicon
    assert continued.scripts == base.scripts
    for query in (LemmaQuery("adducam", "VERB"), LemmaQuery("portam", "NOUN"),
                  LemmaQuery("CD", "SYM")):
        assert lemmatize(continued, query) == lemmatize(base, query)


def test_empty_corpus_without_base_raises():
    with pytest.raises(EmptyCorpus):
        train_lemmatizer(simple_doc([]))


def test_training_set_accuracy_on_tie_free_corpus():
    corpus = _fixture_corpus()
    model = train_lemmatizer(corpus)
    total = matches = 0
    for s in corpus.sentences:
        for t in s.tokens:
            total += 1
            predicted = lemmatize(model, LemmaQuery(t.form, t.upos))
            if predicted == t.lemma.lower():
                matches += 1
    assert matches == total


def test_wire_query_parsing():
    q = parse_wire_query("adducam:VERB")
    assert q == LemmaQuery("adducam", "VERB")
    assert parse_wire_query("regis:_") == LemmaQuery("regis", "_")


def test_wire_query_rejects_colon_in_form():
    with pytest.raises(MedlatinError):
        parse_wire_query("ad:ducam:VERB")
    with pytest.raises(MedlatinError):
        parse_wire_query("plain")
    with pytest.raises(MedlatinError):
        parse_wire_query(":VERB")
    for line in ("ducam:noun", "regis:FOO", "regis:"):
        with pytest.raises(MedlatinError, match="is not a UPOS tag"):
            parse_wire_query(line)


def test_model_file_roundtrip(tmp_path):
    model = train_lemmatizer(_fixture_corpus())
    path = str(tmp_path / "lemma.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.lexicon == model.lexicon
    assert loaded.scripts == model.scripts
    for query in (LemmaQuery("adducam", "VERB"), LemmaQuery("portam", "NOUN")):
        assert lemmatize(loaded, query) == lemmatize(model, query)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["format"] == "medlatin-lemmatizer/1"


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.pop("scripts"), "missing key 'scripts'"),
    (lambda payload: payload.__setitem__("lexicon", {}), "key 'lexicon' must be a list"),
    (lambda payload: payload.__setitem__("config_metadata", []), "must be a dict"),
    (lambda payload: payload["lexicon"].append(["portam", "NOUN"]), "malformed model"),
    (lambda payload: payload["scripts"].append(["am", "NOUN", [[["x"], 1]]]), "malformed model"),
    # A string that is not a str: a form, UPOS, lemma, suffix or script string.
    (lambda payload: payload["lexicon"][0].__setitem__(0, 7), "malformed model"),
    (lambda payload: payload["lexicon"][0].__setitem__(1, None), "malformed model"),
    (lambda payload: payload["lexicon"][0][2][0].__setitem__(0, 7), "malformed model"),
    (lambda payload: payload["scripts"][0].__setitem__(0, 7), "malformed model"),
    (lambda payload: payload["scripts"][0].__setitem__(1, True), "malformed model"),
    (lambda payload: payload["scripts"][0][2][0][0].__setitem__(1, 7), "malformed model"),
    (lambda payload: payload["scripts"][-1][2][0][0].__setitem__(3, 7), "malformed model"),
    (lambda payload: payload["scripts"].append(["am", "NOUN", [[[0, "", 0, "", [[1, "c", 7]]], 1]]]),
     "malformed model"),
    (lambda payload: payload["scripts"].append(["am", "NOUN", [[[0, "", 0, "", [[1, 7, "c"]]], 1]]]),
     "malformed model"),
    # A provenance stage that is not a {"datasets", "was_continued"} dict.
    (lambda payload: payload.__setitem__("provenance", [1]), "malformed model"),
    (lambda payload: payload.__setitem__("provenance", ["x"]), "malformed model"),
    (lambda payload: payload.__setitem__("provenance", [{}]), "malformed model"),
    # A stage whose values have the wrong types.
    (lambda payload: payload["provenance"][0].update(datasets="ud"),
     r"provenance stage 0: datasets must be a list of strings, not 'ud'"),
    (lambda payload: payload["provenance"][0].update(datasets=[None]), "malformed model"),
    (lambda payload: payload["provenance"][0].update(was_continued="no"),
     r"provenance stage 0: was_continued must be a bool, not 'no'"),
    (lambda payload: payload["provenance"][0].update(was_continued=1), "malformed model"),
])
def test_load_model_rejects_malformed_file(tmp_path, edit, message):
    path = tmp_path / "lemma.json"
    save_model(train_lemmatizer(_fixture_corpus()), str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MedlatinError, match=f"lemma.json: .*{message}"):
        load_model(str(path))


def test_config_metadata_recorded(tmp_path):
    base = train_lemmatizer(_fixture_corpus())
    path = tmp_path / "lemma.json"
    for model in (base, train_lemmatizer(_fixture_corpus(), base=base)):
        save_model(model, str(path))
        assert json.loads(path.read_text(encoding="utf-8"))["config_metadata"] == {
            "batch_size": 128, "epochs": 5, "input_sequence_length": 48,
            "output_sequence_length": 24, "learning_rate": 0.001}


# The code the one-loop cascade, the pooled suffix index and the model-file
# writer replaced, kept as the reference they are tested against.

def old_apply_edit_script(script, form):
    text = form
    if script.strip_prefix_len > len(text):
        raise ScriptIncompatible(
            f"prefix strip {script.strip_prefix_len} exceeds length of {form!r}")
    text = script.prefix_add + text[script.strip_prefix_len:]
    if script.strip_suffix_len > len(text):
        raise ScriptIncompatible(
            f"suffix strip {script.strip_suffix_len} exceeds residue of {form!r}")
    text = text[:len(text) - script.strip_suffix_len] + script.suffix_add
    for offset, old, new in script.interior_edits:
        if offset < 0 or offset + len(old) > len(text):
            raise ScriptIncompatible(
                f"interior edit at {offset} falls outside residue {text!r}")
        if text[offset:offset + len(old)] != old:
            raise ScriptIncompatible(
                f"interior edit expects {old!r} at {offset} in {text!r}")
        text = text[:offset] + new + text[offset + len(old):]
    return text


def old_top_script(counter):
    """Highest count wins; ties break on the script's serialization order."""
    best_key = min(counter, key=lambda k: (-counter[k], k))
    strip_p, add_p, strip_s, add_s, interior = best_key
    return EditScript(strip_p, add_p, strip_s, add_s, tuple(tuple(e) for e in interior))


def old_lemmatize(model, query):
    """lemmatize with steps 3 and 4 as two loops, each ranking a counter of
    script key tuples and rebuilding the winner as an EditScript."""
    if query.upos == "SYM":
        return "_"
    form = query.form.lower()
    entry = model.lexicon.get((form, query.upos))
    if entry:
        return min(entry, key=lambda lemma: (-entry[lemma], lemma))
    lengths = range(min(MAX_SUFFIX_KEY, len(form)), 0, -1)
    for n in lengths:
        counter = model.scripts.get((form[-n:], query.upos))
        if counter:
            try:
                return old_apply_edit_script(old_top_script(counter), form)
            except ScriptIncompatible:
                continue
    for n in lengths:
        counter = model.pooled.get(form[-n:])
        if counter:
            try:
                return old_apply_edit_script(old_top_script(counter), form)
            except ScriptIncompatible:
                continue
    return form


def scan_lemmatize(model, query):
    """lemmatize with cascade step 4 pooling the counts by a scan over every
    (suffix, upos) key."""
    if query.upos == "SYM":
        return "_"
    form = query.form.lower()
    entry = model.lexicon.get((form, query.upos))
    if entry:
        return min(entry, key=lambda lemma: (-entry[lemma], lemma))
    for n in range(min(MAX_SUFFIX_KEY, len(form)), 0, -1):
        counter = model.scripts.get((form[-n:], query.upos))
        if counter:
            try:
                return apply_edit_script(old_top_script(counter), form)
            except ScriptIncompatible:
                continue
    for n in range(min(MAX_SUFFIX_KEY, len(form)), 0, -1):
        suffix = form[-n:]
        pooled = {}
        for (key_suffix, _upos), counter in model.scripts.items():
            if key_suffix == suffix:
                for script_key, count in counter.items():
                    pooled[script_key] = pooled.get(script_key, 0) + count
        if pooled:
            try:
                return apply_edit_script(old_top_script(pooled), form)
            except ScriptIncompatible:
                continue
    return form


def json_dump_save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "lexicon": [
            [form, upos, sorted(counter.items())]
            for (form, upos), counter in sorted(model.lexicon.items())
        ],
        "scripts": [
            [suffix, upos, sorted(
                ([list(k[:4]) + [[list(e) for e in k[4]]], c] for k, c in counter.items()),
            )]
            for (suffix, upos), counter in sorted(model.scripts.items())
        ],
        "provenance": list(model.provenance),
        "config_metadata": REFERENCE_SEQ2SEQ_CONFIG,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=0, sort_keys=True)
        fh.write("\n")


def _mini_models():
    registry = load_registry(MINI_REGISTRY)
    ud = [load_dataset(registry, name) for name in ("ud_alpha", "ud_beta")]
    genres = [load_dataset(registry, name) for name in ("Annals", "Science", "Biography")]
    base = train_lemmatizer(Document(tuple(s for d in ud for s in d.sentences), "ud"))
    staged = train_lemmatizer(Document(tuple(s for d in genres for s in d.sentences), "genres"),
                              base=base)
    return base, staged


MINI_MODELS = _mini_models()
MINI_FORMS = sorted({form for model in MINI_MODELS for form, _upos in model.lexicon})
UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PROPN", "X", "SYM", "INTJ")


@st.composite
def queries(draw):
    """Unseen forms that end like training forms, and random ones."""
    ending = draw(st.sampled_from(MINI_FORMS))[-draw(st.integers(0, 6)):]
    stem = draw(st.text("abcdeilmnorstuvx", max_size=5))
    return LemmaQuery(draw(st.sampled_from([stem + ending, stem, ending or "a"])),
                      draw(st.sampled_from(UPOS)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MINI_MODELS), queries())
def test_pooled_index_matches_scan_reference(model, query):
    assert lemmatize(model, query) == scan_lemmatize(model, query)


def _reloaded(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lemma.json")
        save_model(model, path)
        return load_model(path)


def _script_key_types(model):
    return {type(script) for counter in model.scripts.values() for script in counter}


LOADED_MINI_MODELS = tuple(map(_reloaded, MINI_MODELS))


def test_trained_models_key_by_edit_script_and_loaded_ones_by_plain_tuple():
    for trained, loaded in zip(MINI_MODELS, LOADED_MINI_MODELS):
        assert _script_key_types(trained) == {EditScript}
        assert _script_key_types(loaded) == {tuple}
        assert loaded == trained


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MINI_MODELS + LOADED_MINI_MODELS), queries())
def test_cascade_matches_old_cascade_on_mini_models(model, query):
    assert lemmatize(model, query) == old_lemmatize(model, query)


@st.composite
def small_corpora(draw):
    """Few letters and short words, so counts tie and scripts fail to apply."""
    words = st.text("abu", min_size=1, max_size=5)
    rows = draw(st.lists(st.tuples(words, words, st.sampled_from(("NOUN", "VERB", "SYM"))),
                         min_size=1, max_size=12))
    return simple_doc([rows])


@settings(max_examples=150, deadline=None)
@given(small_corpora(), st.lists(st.tuples(st.text("abu", min_size=1, max_size=7),
                                           st.sampled_from(("NOUN", "VERB", "ADJ", "SYM"))),
                                 min_size=1, max_size=20))
def test_cascade_matches_old_cascade_on_trained_and_loaded_models(corpus, pairs):
    trained = train_lemmatizer(corpus)
    for model in (trained, _reloaded(trained)):
        for form, upos in pairs:
            query = LemmaQuery(form, upos)
            assert lemmatize(model, query) == old_lemmatize(model, query)


def test_pooled_step_answers_unseen_upos_like_the_scan():
    base, staged = MINI_MODELS
    for model in (base, staged):
        for form in MINI_FORMS:
            query = LemmaQuery(form + "x", "INTJ")
            assert lemmatize(model, query) == scan_lemmatize(model, query)


def test_pooled_index_is_ignored_by_equality(tmp_path):
    path = str(tmp_path / "lemma.json")
    save_model(MINI_MODELS[1], path)
    loaded = load_model(path)
    assert loaded == MINI_MODELS[1]
    assert loaded.pooled == MINI_MODELS[1].pooled
    assert "pooled" not in repr(loaded)


def _escaping_corpus():
    return simple_doc([
        [("gracia", "gratia", "NOUN"), ("knosco", "gnosco", "VERB"),
         ('di"xit', 'dic"o', "VERB"), ("a\\b", "a\\c", "X")],
        [("\u00e6dificium", "\u00e6dificium", "NOUN"),
         ("uer\u2028bum", "uer\u2028bum", "NOUN"), ("%sam", "%sa", "NOUN"),
         ("\u1f00\u03b3\u03b9\u03bf\u03c2", "\u1f05\u03b3\u03b9\u03bf\u03c2", "ADJ")],
    ], name="escaping")


@pytest.mark.parametrize("which", ["mini-base", "mini-staged", "escaping", "empty"])
def test_model_files_match_json_dump_reference(tmp_path, which):
    model = {"mini-base": MINI_MODELS[0], "mini-staged": MINI_MODELS[1],
             "escaping": train_lemmatizer(_escaping_corpus()),
             "empty": train_lemmatizer(simple_doc([[("CD", "_", "SYM")]]))}[which]
    new_path, reference_path = tmp_path / "new.json", tmp_path / "reference.json"
    save_model(model, str(new_path))
    json_dump_save_model(model, str(reference_path))
    assert new_path.read_bytes() == reference_path.read_bytes()
    resaved = tmp_path / "resaved.json"
    save_model(load_model(str(new_path)), str(resaved))
    assert resaved.read_bytes() == reference_path.read_bytes()
