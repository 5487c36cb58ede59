import json
import random
import string

import pytest

from medlatin.errors import EmptyCorpus, MedlatinError
from medlatin.lemmatizer import (EditScript, LemmaQuery, ScriptIncompatible,
                                 apply_edit_script, derive_edit_script,
                                 lemmatize, load_model, parse_wire_query,
                                 save_model, train_lemmatizer)

from conftest import simple_doc


def test_derive_suffix_script():
    script = derive_edit_script("adducam", "adduco")
    assert script == EditScript(strip_suffix_len=2, suffix_add="o")
    assert apply_edit_script(script, "adducam") == "adduco"


def test_derive_identity():
    script = derive_edit_script("rex", "rex")
    assert script.is_identity()
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


def test_inverse_property_random_pairs():
    rng = random.Random(4242)
    for _ in range(5000):
        form = "".join(rng.choice(string.ascii_lowercase)
                       for _ in range(rng.randint(1, 20)))
        lemma = "".join(rng.choice(string.ascii_lowercase)
                        for _ in range(rng.randint(1, 20)))
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
    assert q.wire() == "adducam:VERB"


def test_wire_query_rejects_colon_in_form():
    with pytest.raises(MedlatinError):
        parse_wire_query("ad:ducam:VERB")
    with pytest.raises(MedlatinError):
        parse_wire_query("plain")
    with pytest.raises(MedlatinError):
        parse_wire_query(":VERB")


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
])
def test_load_model_rejects_malformed_file(tmp_path, edit, message):
    path = tmp_path / "lemma.json"
    save_model(train_lemmatizer(_fixture_corpus()), str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(MedlatinError, match=f"lemma.json: .*{message}"):
        load_model(str(path))


def test_config_metadata_recorded():
    model = train_lemmatizer(_fixture_corpus())
    assert model.config_metadata == {
        "batch_size": 128, "epochs": 5, "input_sequence_length": 48,
        "output_sequence_length": 24, "learning_rate": 0.001}
