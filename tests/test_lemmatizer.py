import json
import os
import tempfile
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin import lemmatizer as lemmatizer_module
from medlatin.conllu import Document
from medlatin.errors import (EmptyCorpus, JSONItems, MedlatinError, json_string,
                             write_model_file)
from medlatin.lemmatizer import (MAX_SUFFIX_KEY, MODEL_FORMAT, REFERENCE_SEQ2SEQ_CONFIG,
                                 EditScript, LemmaQuery, LemmatizerModel, ScriptIncompatible,
                                 apply_edit_script, derive_edit_script, lemmatize, load_model,
                                 parse_wire_query, save_model, train_lemmatizer)
from medlatin.registry import load_dataset, load_registry

from conftest import MINI_REGISTRY, json_array, json_row, simple_doc


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
    # A count that is not an int >= 1, which int() used to coerce.
    *[(lambda payload, c=c: payload["lexicon"][0][2][0].__setitem__(1, c),
       rf"lexicon: count {c!r} is not an int >= 1") for c in (2.9, "3", -5, 0, True)],
    *[(lambda payload, c=c: payload["scripts"][1][2][0].__setitem__(1, c),
       rf"scripts: count {c!r} is not an int >= 1") for c in (2.9, "3", -5, 0, True)],
    # A UPOS that is not a tag, or is SYM, which training never keeps.
    (lambda payload: payload["lexicon"][0].__setitem__(1, "FOO"),
     "lexicon: UPOS 'FOO' is not a UPOS tag other than SYM"),
    (lambda payload: payload["lexicon"][0].__setitem__(1, "SYM"), "UPOS 'SYM' is not"),
    (lambda payload: payload["scripts"][0].__setitem__(1, "FOO"),
     "scripts: UPOS 'FOO' is not a UPOS tag other than SYM"),
    # A strip length or interior edit offset that is not an int >= 0.
    *[(lambda payload, n=n, i=i: payload["scripts"][1][2][0][0].__setitem__(i, n),
       rf"strip length or offset {n!r} is not an int >= 0")
      for n in (1.5, -1, "2", True) for i in (0, 2)],
    *[(lambda payload, n=n: payload["scripts"].append(
        ["am", "ADJ", [[[0, "", 0, "", [[n, "c", "t"]]], 1]]]),
       rf"strip length or offset {n!r} is not an int >= 0") for n in (1.5, -1)],
    *[(lambda payload, edit=edit: payload["scripts"].append(
        ["am", "ADJ", [[[0, "", 0, "", [edit]], 1]]]),
       r"an interior edit is not \[offset, old, new\]") for edit in ([], [1, "c"], "abcd")],
    # A repeated row, a repeated item, or items that are not a list.
    (lambda payload: payload["lexicon"].append(payload["lexicon"][0]),
     r"lexicon: a \(form or suffix, UPOS\) row repeats"),
    (lambda payload: payload["scripts"].append(payload["scripts"][0]), "scripts: a .* row repeats"),
    (lambda payload: payload["lexicon"][0][2].append(["adduco", 1]),
     "lexicon: an item repeats within a row"),
    (lambda payload: payload["scripts"][0][2].append([[0, "", 1, "", []], 1]),
     "scripts: an item repeats within a row"),
    (lambda payload: payload["lexicon"][0].__setitem__(2, {"adduco": 2}),
     "lexicon: a row's items are not a list"),
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
    for form in MINI_FORMS:
        lemmatize(loaded, LemmaQuery(form, "NOUN"))
    cold = fresh(loaded)
    assert loaded.answers and not cold.answers
    assert loaded == cold == MINI_MODELS[1]
    assert "answers" not in repr(loaded)
    assert repr(loaded) == repr(cold)


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


# lemmatize before the answer table, kept verbatim as the reference the
# table is tested against.

def _top(counter: dict):
    """The counter's most frequent item; a tie goes to the smaller lemma or script."""
    return min(counter, key=lambda item: (-counter[item], item))


def tableless_lemmatize(model, query: LemmaQuery) -> str:
    """Run the decision cascade; never fails (step 5 guarantees totality)."""
    form, upos = query
    if upos == "SYM":
        return "_"
    form = form.lower()
    entry = model.lexicon.get((form, upos))
    if entry:
        return _top(entry)
    suffixes = [form[-n:] for n in range(min(MAX_SUFFIX_KEY, len(form)), 0, -1)]
    by_upos = (model.scripts.get((suffix, upos)) for suffix in suffixes)
    for counter in chain(by_upos, map(model.pooled.get, suffixes)):
        if counter:
            try:
                return apply_edit_script(_top(counter), form)
            except ScriptIncompatible:
                continue
    return form


def fresh(model):
    """The same counts in a new model, whose answer table is empty."""
    return LemmatizerModel(model.lexicon, model.scripts, model.provenance)


CASINGS = (str, str.upper, str.capitalize, str.swapcase)


@st.composite
def query_sequences(draw):
    """A few distinct queries, asked in any order and casing, most of them
    more than once; "adducam" and "Adducam" are one query to the table."""
    pool = draw(st.lists(queries(), min_size=1, max_size=6))
    asked = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(CASINGS)),
                          min_size=1, max_size=30))
    return [LemmaQuery(casing(query.form), query.upos) for query, casing in asked]


def _assert_answers_like_reference(model, sequence):
    for query in sequence:
        assert lemmatize(model, query) == tableless_lemmatize(model, query)
    assert all(upos != "SYM" for _form, upos in model.answers)
    for (form, upos), lemma in model.answers.items():
        assert lemma == tableless_lemmatize(model, LemmaQuery(form, upos))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MINI_MODELS + LOADED_MINI_MODELS), query_sequences())
def test_answer_table_gives_the_tableless_answers(model, sequence):
    model = fresh(model)
    _assert_answers_like_reference(model, sequence)
    asked = {(query.form.lower(), query.upos) for query in sequence if query.upos != "SYM"}
    assert model.answers.keys() == asked


def test_continued_model_starts_with_an_empty_answer_table(tmp_path):
    """The answer table and the tops memo alike: each starts empty in a
    fresh, continued or loaded model, is never shared with a base model or
    written, and changes neither == nor repr."""
    base = fresh(MINI_MODELS[0])
    assert base.answers == {} and base.tops == {}
    # Unseen forms that end like seen ones, so the cascade ranks counters.
    sequence = [LemmaQuery(prefix + form, upos) for form in MINI_FORMS
                for prefix in ("", "zq") for upos in ("NOUN", "VERB", "INTJ")]
    before = [lemmatize(base, query) for query in sequence]
    table, tops = dict(base.answers), _ranked(base)
    assert len(table) == len(sequence)
    # Counters of both steps are ranked: step 3 under a UPOS, step 4 under None.
    assert {upos is None for _suffix, upos in tops} == {False, True}
    assert base == MINI_MODELS[0] and repr(base) == repr(fresh(base))
    genres = simple_doc([[("terram", "terrum", "NOUN"), ("adducam", "adducor", "VERB")]])
    continued = train_lemmatizer(genres, base=base)
    assert continued.answers == {} and continued.tops == {}
    assert base.answers == table and _ranked(base) == tops
    assert [lemmatize(base, query) for query in sequence] == before
    _assert_answers_like_reference(continued, sequence)
    assert _ranked(base) == tops
    _assert_tops_like_reference(continued)
    # Neither is ever written: a warm model saves as a cold one does.
    warm, cold = tmp_path / "warm.json", tmp_path / "cold.json"
    save_model(base, str(warm))
    save_model(fresh(base), str(cold))
    assert warm.read_bytes() == cold.read_bytes()
    loaded = load_model(str(warm))
    assert loaded.answers == {} and loaded.tops == {}


# The cascade that ranks each counter once per model and skips a script
# that does not apply without raising, against old_lemmatize,
# old_apply_edit_script and old_top_script above, which share no code with it.

def _ranked(model):
    """model.tops flattened: (suffix, upos) or (suffix, None) -> top script."""
    return {(suffix, upos): top for upos, memo in model.tops.items()
            for suffix, top in memo.items()}


def _assert_tops_like_reference(model):
    for (suffix, upos), top in _ranked(model).items():
        counter = model.pooled[suffix] if upos is None else model.scripts[(suffix, upos)]
        assert top == old_top_script(counter)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MINI_MODELS + LOADED_MINI_MODELS), query_sequences())
def test_ranked_once_cascade_matches_old_cascade(model, sequence):
    model = fresh(model)
    for query in sequence:
        assert lemmatize(model, query) == old_lemmatize(model, query)
    _assert_tops_like_reference(model)
    # Again with every counter the queries visit already ranked.
    model.answers.clear()
    for query in sequence:
        assert lemmatize(model, query) == old_lemmatize(model, query)
    _assert_tops_like_reference(model)


def _outcome(apply, script, form):
    try:
        return apply(script, form)
    except ScriptIncompatible:
        return ScriptIncompatible


SCRIPT_TEXTS = st.text("abu", max_size=3)
INTERIOR_EDITS = st.lists(st.tuples(st.integers(-1, 6), SCRIPT_TEXTS, SCRIPT_TEXTS),
                          max_size=2).map(tuple)


@settings(max_examples=1000, deadline=None)
@given(st.builds(EditScript, st.integers(0, 5), SCRIPT_TEXTS, st.integers(0, 5), SCRIPT_TEXTS,
                 INTERIOR_EDITS),
       st.text("abu", max_size=6))
def test_apply_edit_script_matches_old_apply(script, form):
    assert (_outcome(apply_edit_script, script, form)
            == _outcome(old_apply_edit_script, script, form))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MINI_MODELS + LOADED_MINI_MODELS), query_sequences())
def test_a_full_answer_table_takes_no_entry_and_stays_right(model, sequence):
    model = fresh(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lemmatizer_module, "ANSWER_TABLE_SIZE", 3)
        for query in sequence + sequence:
            assert lemmatize(model, query) == tableless_lemmatize(model, query)
            assert len(model.answers) <= 3
    first = list(dict.fromkeys((q.form.lower(), q.upos) for q in sequence if q.upos != "SYM"))
    assert list(model.answers) == first[:3]


# train_lemmatizer as it was before it counted per distinct triple, its
# per-token loop kept verbatim and its empty-corpus check left out.
# train_lemmatizer must build exactly its tables, key and item order included.

def per_token_train_lemmatizer(corpus, base=None, datasets=None):
    lexicon = {}
    scripts = {}
    if base is not None:
        lemmatizer_module._merge_counts(lexicon, base.lexicon)
        lemmatizer_module._merge_counts(scripts, base.scripts)
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            if token.upos == "SYM":
                continue
            form = token.form.lower()
            lemma = token.lemma.lower()
            bucket = lexicon.setdefault((form, token.upos), {})
            bucket[lemma] = bucket.get(lemma, 0) + 1
            script = derive_edit_script(form, lemma)
            for n in range(1, min(MAX_SUFFIX_KEY, len(form)) + 1):
                suffix_bucket = scripts.setdefault((form[-n:], token.upos), {})
                suffix_bucket[script] = suffix_bucket.get(script, 0) + 1
    stage = {
        "datasets": list(datasets) if datasets is not None else [corpus.source_name],
        "was_continued": base is not None,
    }
    provenance = (base.provenance if base is not None else ()) + (stage,)
    return LemmatizerModel(lexicon, scripts, provenance)


@st.composite
def repeating_corpora(draw, name):
    """Mixed-case forms and lemmas, SYM tokens, triples that repeat in
    other casings, and forms both shorter and longer than MAX_SUFFIX_KEY."""
    words = st.text("abuABUİ", min_size=1, max_size=MAX_SUFFIX_KEY + 2)
    pool = draw(st.lists(st.tuples(words, words, st.sampled_from(("NOUN", "VERB", "SYM"))),
                         min_size=1, max_size=6))
    recased = st.sampled_from(pool).flatmap(lambda row: st.sampled_from(
        [row, (row[0].upper(), row[1], row[2]), (row[0], row[1].swapcase(), row[2])]))
    return simple_doc(draw(st.lists(st.lists(recased, min_size=1, max_size=8),
                                    min_size=1, max_size=4)), name=name)


def _ordered(table):
    return [(key, list(counter.items())) for key, counter in table.items()]


def assert_same_lemmatizer(corpus, base, tmp_dir):
    model = train_lemmatizer(corpus, base=base)
    reference = per_token_train_lemmatizer(corpus, base=base)
    assert _ordered(model.lexicon) == _ordered(reference.lexicon)
    assert _ordered(model.scripts) == _ordered(reference.scripts)
    assert _ordered(model.pooled) == _ordered(reference.pooled)
    assert model.provenance == reference.provenance
    new_path, reference_path = os.path.join(tmp_dir, "new.json"), os.path.join(tmp_dir, "ref.json")
    save_model(model, new_path)
    save_model(reference, reference_path)
    with open(new_path, "rb") as new, open(reference_path, "rb") as ref:
        assert new.read() == ref.read()
    return model


@settings(max_examples=150, deadline=None)
@given(repeating_corpora("base"), repeating_corpora("corpus"))
def test_training_matches_per_token_reference(base_corpus, corpus):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_lemmatizer(corpus, None, tmp)
        base = assert_same_lemmatizer(base_corpus, None, tmp)
        assert_same_lemmatizer(corpus, base, tmp)
        assert_same_lemmatizer(Document((), "empty"), base, tmp)


def test_training_matches_per_token_reference_on_mini_stages(tmp_path):
    registry = load_registry(MINI_REGISTRY)
    base = assert_same_lemmatizer(load_dataset(registry, "ud_alpha"), None, str(tmp_path))
    for genre in ("Annals", "Science"):
        assert_same_lemmatizer(load_dataset(registry, genre), base, str(tmp_path))


# The model-file writer before each row and each [item, count] pair was
# rendered with one f-string, kept verbatim as the reference the writer is
# tested against.

_COUNTS_ROW = json_row("%s", "%s", "%s")  # form or suffix, upos, [[item, count], ...]
_ITEM_COUNT = json_row("%s", "%d")
_SCRIPT = json_row("%d", "%s", "%d", "%s", "%s")  # the fields of EditScript
_INTERIOR_EDIT = json_row("%d", "%s", "%s")


def _script_text(key: tuple) -> str:
    strip_p, add_p, strip_s, add_s, interior = key
    edits = json_array(_INTERIOR_EDIT % (o, json_string(old), json_string(new))
                       for o, old, new in interior)
    return _SCRIPT % (strip_p, json_string(add_p), strip_s, json_string(add_s), edits)


def _counts_rows(table: dict, item_text):
    """The JSON texts of the lexicon's or the scripts' rows, sorted by key;
    item_text(item) is the JSON text of a lemma or a script."""
    for (name, upos), counter in sorted(table.items()):
        items = sorted(counter)
        counts = json_array(map(_ITEM_COUNT.__mod__,
                                zip(map(item_text, items), map(counter.__getitem__, items))))
        yield _COUNTS_ROW % (json_string(name), json_string(upos), counts)


def reference_save_model(model: LemmatizerModel, path: str) -> None:
    """Write the model file; each distinct script's JSON text is made once."""
    scripts = {key for counter in model.scripts.values() for key in counter}
    script_texts = {key: _script_text(key) for key in scripts}
    write_model_file(path, {
        "format": MODEL_FORMAT,
        "lexicon": JSONItems(_counts_rows(model.lexicon, json_string)),
        "scripts": JSONItems(_counts_rows(model.scripts, script_texts.__getitem__)),
        "provenance": list(model.provenance),
        "config_metadata": REFERENCE_SEQ2SEQ_CONFIG,
    })


# Brackets, quotes, backslashes, separators and non-ASCII text.
ESCAPED_TEXT = st.text(st.sampled_from('[]{}",:\\/\n\t\x00\xe9€ \U0001d504a'), max_size=6)
ANY_UPOS = st.one_of(st.sampled_from(["NOUN", "VERB"]), ESCAPED_TEXT)
SCRIPTS = st.one_of(
    st.builds(derive_edit_script, ESCAPED_TEXT, ESCAPED_TEXT),
    st.tuples(st.integers(0, 9), ESCAPED_TEXT, st.integers(0, 9), ESCAPED_TEXT,
              st.lists(st.tuples(st.integers(0, 9), ESCAPED_TEXT, ESCAPED_TEXT),
                       max_size=3).map(tuple)))


def count_tables(items):
    """(name, upos) -> {item: count} tables, empty counters among them, as a
    loaded file can hold.  Some are padded with one-item rows until they hold
    exactly 1024 or 1025 rows, JSONItems' batch size or one more."""
    counter = st.dictionaries(items, st.integers(1, 10**6), max_size=4)

    @st.composite
    def tables(draw):
        table = draw(st.dictionaries(st.tuples(ESCAPED_TEXT, ANY_UPOS), counter, max_size=8))
        target = draw(st.sampled_from([None, 1024, 1025]))
        if target is not None:
            pool = draw(st.lists(items, min_size=1, max_size=3))
            rng = draw(st.randoms(use_true_random=False))
            for i in range(target - len(table)):
                table[(f"pad{i}", "NOUN")] = {rng.choice(pool): rng.randint(1, 3)}
        return table
    return tables()


@settings(max_examples=120, deadline=None)
@given(count_tables(ESCAPED_TEXT), count_tables(SCRIPTS))
def test_save_model_writes_the_reference_writers_bytes(lexicon, scripts):
    model = LemmatizerModel(lexicon, scripts,
                            ({"datasets": ['"\\\xe9]'], "was_continued": False},))
    with tempfile.TemporaryDirectory() as tmp:
        new_path, reference_path = os.path.join(tmp, "new.json"), os.path.join(tmp, "ref.json")
        save_model(model, new_path)
        reference_save_model(model, reference_path)
        with open(new_path, "rb") as new, open(reference_path, "rb") as reference:
            assert new.read() == reference.read()
