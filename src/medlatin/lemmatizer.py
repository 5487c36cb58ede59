"""Context-independent lemmatization keyed on (inflected form, UPOS).

The model receives only the word form and its part-of-speech tag (no
morphological features, no sentence context) and must produce the lemma.
At the wire level the query is the form and the tag joined by a colon
("adducam:VERB"); internally the pair is passed structurally so forms are
never ambiguous.

The implementation is a classifier over learned edit scripts: each training
pair (form, lemma) is compressed into a positional transformation that is
exactly invertible on the pair it was derived from, and scripts are indexed
by form-suffix keys (lengths 1-5) plus UPOS.  Lookup is a fixed cascade:

    1. UPOS == SYM                      -> "_" (symbolic tokens are never lemmatized)
    2. lexicon hit on (form, upos)      -> most frequent lemma seen in training
    3. longest suffix key with upos     -> apply its top-ranked script, if applicable
    4. longest suffix key, any upos     -> same, counts pooled across tags
    5. fallback                         -> the form itself, lowercased

Forms are lowercased before lookup and output casing is lowercase.  Staged
training merges counts additively, so continuing on a new corpus accumulates
evidence instead of restarting.

REFERENCE_SEQ2SEQ_CONFIG holds the hyperparameters of the byte-level
generation setup this classifier stands in for; save_model writes them
into every model file for provenance, and nothing here interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .conllu import UPOS_TAGS, Document
from .errors import (EmptyCorpus, JSONItems, MedlatinError, json_array, json_row, json_string,
                     read_model_file, read_provenance, write_model_file)

MODEL_FORMAT = "medlatin-lemmatizer/1"

MAX_SUFFIX_KEY = 5

REFERENCE_SEQ2SEQ_CONFIG = {
    "batch_size": 128,
    "epochs": 5,
    "input_sequence_length": 48,
    "output_sequence_length": 24,
    "learning_rate": 0.001,
}


class ScriptIncompatible(MedlatinError):
    pass


class LemmaQuery(NamedTuple):
    form: str
    upos: str


class EditScript(NamedTuple):
    """Positional transformation from an inflected form to its lemma.

    Applied in fixed order: strip/add prefix, strip/add suffix, then
    interior edits left to right (offsets are relative to the string after
    the prefix/suffix steps).  A plain tuple of the five fields is equal
    and hash-equal to the script, so either can key a counter.
    """

    strip_prefix_len: int = 0
    prefix_add: str = ""
    strip_suffix_len: int = 0
    suffix_add: str = ""
    interior_edits: tuple[tuple[int, str, str], ...] = ()


def derive_edit_script(form: str, lemma: str) -> EditScript:
    """Minimal script: maximal shared prefix and suffix, one edit for the rest.

    The edit is expressed as a suffix operation when the difference reaches
    the end of the word (the common case for Latin inflection), as a prefix
    operation when it reaches only the start, and as a single interior
    replacement otherwise.  apply_edit_script(result, form) == lemma always.
    """
    p = 0
    limit = min(len(form), len(lemma))
    while p < limit and form[p] == lemma[p]:
        p += 1
    s = 0
    s_limit = min(len(form) - p, len(lemma) - p)
    while s < s_limit and form[len(form) - 1 - s] == lemma[len(lemma) - 1 - s]:
        s += 1
    form_mid = form[p:len(form) - s]
    lemma_mid = lemma[p:len(lemma) - s]
    if not form_mid and not lemma_mid:
        return EditScript()
    if s == 0:
        return EditScript(strip_suffix_len=len(form_mid), suffix_add=lemma_mid)
    if p == 0:
        return EditScript(strip_prefix_len=len(form_mid), prefix_add=lemma_mid)
    return EditScript(interior_edits=((p, form_mid, lemma_mid),))


def apply_edit_script(script: EditScript, form: str) -> str:
    """Apply a script, or a plain tuple of its five fields, to a form;
    raises ScriptIncompatible when it cannot apply."""
    strip_prefix_len, prefix_add, strip_suffix_len, suffix_add, interior_edits = script
    if strip_prefix_len > len(form):
        raise ScriptIncompatible(f"prefix strip {strip_prefix_len} exceeds length of {form!r}")
    text = prefix_add + form[strip_prefix_len:]
    if strip_suffix_len > len(text):
        raise ScriptIncompatible(f"suffix strip {strip_suffix_len} exceeds residue of {form!r}")
    text = text[:len(text) - strip_suffix_len] + suffix_add
    for offset, old, new in interior_edits:
        if offset < 0 or offset + len(old) > len(text):
            raise ScriptIncompatible(
                f"interior edit at {offset} falls outside residue {text!r}")
        if text[offset:offset + len(old)] != old:
            raise ScriptIncompatible(
                f"interior edit expects {old!r} at {offset} in {text!r}")
        text = text[:offset] + new + text[offset + len(old):]
    return text


@dataclass(frozen=True)
class LemmatizerModel:
    """Lexicon and suffix-script counts; immutable after training.

    lexicon maps (form, upos) -> {lemma: count}; scripts maps
    (suffix, upos) -> {script: count}.  pooled is derived from scripts
    when the model is built and ignored by equality: suffix -> {script:
    count summed over every UPOS}, the counts cascade step 4 ranks.
    """

    lexicon: dict[tuple[str, str], dict[str, int]]
    scripts: dict[tuple[str, str], dict[EditScript, int]]
    provenance: tuple = ()
    pooled: dict[str, dict[EditScript, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Most suffixes occur with one UPOS: they share that counter with
        # scripts, and a copy is made only when a second UPOS adds to it.
        pooled: dict[str, dict[EditScript, int]] = {}
        copied: set[str] = set()
        for (suffix, _upos), counter in self.scripts.items():
            bucket = pooled.setdefault(suffix, counter)
            if bucket is counter:
                continue
            if suffix not in copied:
                bucket = pooled[suffix] = dict(bucket)
                copied.add(suffix)
            for script, count in counter.items():
                bucket[script] = bucket.get(script, 0) + count
        object.__setattr__(self, "pooled", pooled)


def _merge_counts(target: dict, source: dict) -> None:
    for key, counter in source.items():
        bucket = target.setdefault(key, {})
        for item, count in counter.items():
            bucket[item] = bucket.get(item, 0) + count


def train_lemmatizer(corpus: Document, base: LemmatizerModel | None = None,
                     datasets: tuple[str, ...] | None = None) -> LemmatizerModel:
    """Count (form, upos, lemma) triples and index derived scripts by suffix.

    Forms and lemmas are lowercased.  SYM tokens are excluded from both the
    lexicon and the classifier; they are handled by the fixed SYM -> "_"
    rule at query time.  When a base model is given its counts are merged
    additively; an empty corpus is then allowed and yields a model that
    predicts exactly like the base.
    """
    if not corpus.sentences and base is None:
        raise EmptyCorpus(f"cannot train lemmatizer on empty corpus {corpus.source_name!r}")
    lexicon: dict[tuple[str, str], dict[str, int]] = {}
    scripts: dict[tuple[str, str], dict[EditScript, int]] = {}
    if base is not None:
        _merge_counts(lexicon, base.lexicon)
        _merge_counts(scripts, base.scripts)
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


def _top(counter: dict):
    """The counter's most frequent item; a tie goes to the smaller lemma or script."""
    return min(counter, key=lambda item: (-counter[item], item))


def lemmatize(model: LemmatizerModel, query: LemmaQuery) -> str:
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


def parse_wire_query(line: str) -> LemmaQuery:
    """Parse the "form:UPOS" wire format; forms containing ':' and a UPOS
    that is not a UPOS tag (or "_") are rejected."""
    if line.count(":") != 1:
        raise MedlatinError(
            f"query {line!r} must be exactly 'form:UPOS' with a single colon "
            "(forms containing ':' cannot be expressed in the wire format)")
    form, upos = line.split(":")
    if not form:
        raise MedlatinError(f"query {line!r} has an empty form")
    if upos not in UPOS_TAGS:
        raise MedlatinError(f"query {line!r} has UPOS {upos!r}, which is not a UPOS tag")
    return LemmaQuery(form, upos)


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


def save_model(model: LemmatizerModel, path: str) -> None:
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


MODEL_SCHEMA = {"lexicon": list, "scripts": list, "provenance": list, "config_metadata": dict}


def load_model(path: str) -> LemmatizerModel:
    """Read a model file; a malformed one raises MedlatinError naming the
    path.  config_metadata must be an object and is not kept."""
    return read_model_file(path, MODEL_FORMAT, MODEL_SCHEMA, _model_from_payload)


def _model_from_payload(payload: dict) -> LemmatizerModel:
    lexicon = {
        (form, upos): {lemma: int(c) for lemma, c in items}
        for form, upos, items in payload["lexicon"]
    }
    scripts = {}
    for suffix, upos, items in payload["scripts"]:
        counter = {}
        for serialized, count in items:
            strip_p, add_p, strip_s, add_s, interior = serialized
            key = (int(strip_p), add_p, int(strip_s), add_s,
                   tuple((int(o), old, new) for o, old, new in interior))
            counter[key] = int(count)
        scripts[(suffix, upos)] = counter
    # str.join raises TypeError for a form, UPOS, lemma, suffix or script
    # string that is not a str; each distinct script is checked once.
    for table in (lexicon, lexicon.values(), scripts):
        "".join(chain.from_iterable(table))
    for _, add_p, _, add_s, interior in set().union(*scripts.values()):
        "".join([add_p, add_s] + [text for _, old, new in interior for text in (old, new)])
    provenance = read_provenance(payload["provenance"], ("datasets", "was_continued"))
    return LemmatizerModel(lexicon, scripts, provenance)
