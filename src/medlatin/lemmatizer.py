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

Forms are lowercased before lookup and output casing is lowercase.  Training
counts the corpus per distinct (lowercased form, UPOS, lowercased lemma)
triple, so each distinct triple's script is derived once.  Staged training
merges counts additively, so continuing on a new corpus accumulates
evidence instead of restarting.

Since the answer depends only on the lowercased form and the UPOS, each
model keeps the lemma it gave for each distinct (lowercased form, UPOS) and
answers a repeated query from that table; steps 2-5 run only on a query not
yet in it.  The table takes at most ANSWER_TABLE_SIZE (16384) entries,
about 3 MB when full, and after that answers only the queries it holds;
it is never written to a model file and starts empty in every model.

Steps 3 and 4 are one walk over the suffix counters, and each model ranks
each counter once: the first query that visits a (suffix, UPOS) key or a
pooled suffix key stores the counter's top script in the model's tops
memo, and later queries read it from there.  The memo holds at most one
entry per key, so it needs no bound; like the answer table it is never
written and starts empty in every model, and loading ranks nothing.  It is
keyed by suffix under one dict per UPOS (and one, under None, for the
pooled counters) rather than by (suffix, UPOS) tuples: a string is not
tracked by the garbage collector, while a tuple kept per entry brought
the collector's passes into lemmatization.  A top script that does not
fit the form sends the walk on to the next counter without raising
ScriptIncompatible; only apply_edit_script raises.

save_model writes each lexicon and scripts row, and each [item, count]
pair in it, with one f-string; each distinct script's text is made once.

REFERENCE_SEQ2SEQ_CONFIG holds the hyperparameters of the byte-level
generation setup this classifier stands in for; save_model writes them
into every model file for provenance, and nothing here interprets them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .conllu import UPOS_TAGS, Document
from .errors import (EmptyCorpus, JSONItems, MedlatinError, json_string, read_model_file,
                     read_provenance, write_model_file)

MODEL_FORMAT = "medlatin-lemmatizer/1"

MAX_SUFFIX_KEY = 5

ANSWER_TABLE_SIZE = 16384

LEMMA_UPOS = UPOS_TAGS - {"SYM"}  # training skips SYM tokens

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
    text = _applied(script, form)
    if text is None:
        raise ScriptIncompatible(f"edit script {tuple(script)!r} does not apply to {form!r}")
    return text


def _applied(script: tuple, form: str) -> str | None:
    """The form with the script applied, or None when the script does not fit it."""
    strip_prefix_len, prefix_add, strip_suffix_len, suffix_add, interior_edits = script
    if strip_prefix_len > len(form):
        return None
    text = prefix_add + form[strip_prefix_len:]
    if strip_suffix_len > len(text):
        return None
    text = text[:len(text) - strip_suffix_len] + suffix_add
    for offset, old, new in interior_edits:
        end = offset + len(old)
        if offset < 0 or end > len(text) or text[offset:end] != old:
            return None
        text = text[:offset] + new + text[end:]
    return text


@dataclass(frozen=True)
class LemmatizerModel:
    """Lexicon and suffix-script counts; the counts are immutable after
    training, since pooled, answers and tops are derived from them.

    lexicon maps (form, upos) -> {lemma: count}; scripts maps
    (suffix, upos) -> {script: count}.  Three fields are derived, never
    written to a model file and ignored by equality and repr.  pooled is
    built from scripts with the model: suffix -> {script: count summed over
    every UPOS}, the counts cascade step 4 ranks.  answers starts empty and
    lemmatize fills it: (lowercased form, upos) -> the lemma it gave, for
    at most ANSWER_TABLE_SIZE queries.  tops starts empty and the cascade
    fills it with the top script of each counter it visits, ranked the
    first time: tops[upos][suffix] for scripts[(suffix, upos)] and
    tops[None][suffix] for pooled[suffix].
    """

    lexicon: dict[tuple[str, str], dict[str, int]]
    scripts: dict[tuple[str, str], dict[EditScript, int]]
    provenance: tuple = ()
    pooled: dict[str, dict[EditScript, int]] = field(init=False, repr=False, compare=False)
    answers: dict[tuple[str, str], str] = field(init=False, repr=False, compare=False)
    tops: dict[str | None, dict[str, EditScript]] = field(init=False, repr=False,
                                                          compare=False)

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
        object.__setattr__(self, "answers", {})
        object.__setattr__(self, "tops", {})


def _merge_counts(target: dict, source: dict) -> None:
    for key, counter in source.items():
        bucket = target.setdefault(key, {})
        for item, count in counter.items():
            bucket[item] = bucket.get(item, 0) + count


def train_lemmatizer(corpus: Document, base: LemmatizerModel | None = None,
                     datasets: tuple[str, ...] | None = None) -> LemmatizerModel:
    """Count (form, upos, lemma) triples and index derived scripts by suffix.

    Forms and lemmas are lowercased.  The tokens are first counted per
    distinct triple, in first-seen order; each triple then adds its count
    to its lexicon entry and, with its script derived once, to each of its
    suffix keys.  Every table comes out as a per-token pass would build it,
    counts, key order and item order alike.  SYM tokens are excluded from
    both the lexicon and the classifier; they are handled by the fixed
    SYM -> "_" rule at query time.  When a base model is given its counts are merged
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
    # A triple's first token is the first to reach each key and item it
    # adds to, so counting per triple keeps the per-token insertion order.
    triples = Counter((token.form.lower(), token.upos, token.lemma.lower())
                      for sentence in corpus.sentences for token in sentence.tokens
                      if token.upos != "SYM")
    for (form, upos, lemma), count in triples.items():
        bucket = lexicon.setdefault((form, upos), {})
        bucket[lemma] = bucket.get(lemma, 0) + count
        script = derive_edit_script(form, lemma)
        for n in range(1, min(MAX_SUFFIX_KEY, len(form)) + 1):
            suffix_bucket = scripts.setdefault((form[-n:], upos), {})
            suffix_bucket[script] = suffix_bucket.get(script, 0) + count
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
    """Run the decision cascade; never fails (step 5 guarantees totality).
    A query already in the model's answer table is answered from it."""
    form, upos = query
    if upos == "SYM":
        return "_"
    key = (form.lower(), upos)
    answers = model.answers
    lemma = answers.get(key)
    if lemma is None:
        lemma = _resolve(model, *key)
        if len(answers) < ANSWER_TABLE_SIZE:
            answers[key] = lemma
    return lemma


def _resolve(model: LemmatizerModel, form: str, upos: str) -> str:
    """Cascade steps 2-5 for a lowercased form.  Steps 3 and 4 are one walk
    over the (suffix, upos) keys and then the suffix keys, longest first;
    each key's top script is ranked once per model."""
    entry = model.lexicon.get((form, upos))
    if entry:
        return _top(entry)
    by_upos = model.tops.setdefault(upos, {})
    pooled = model.tops.setdefault(None, {})
    length = min(MAX_SUFFIX_KEY, len(form))
    start = len(form) - length
    for step in range(2 * length):
        suffix = form[start + step % length:]
        memo = by_upos if step < length else pooled
        top = memo.get(suffix)
        if top is None:
            counter = (model.scripts.get((suffix, upos)) if step < length
                       else model.pooled.get(suffix))
            if not counter:
                continue
            top = memo[suffix] = _top(counter)
        lemma = _applied(top, form)
        if lemma is not None:
            return lemma
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


def _script_text(key: tuple) -> str:
    """The JSON text of an edit script: [strip_p, add_p, strip_s, add_s, interior]."""
    strip_p, add_p, strip_s, add_s, interior = key
    edits = ",\n".join([f"[\n{o},\n{json_string(old)},\n{json_string(new)}\n]"
                        for o, old, new in interior])
    edits = f"[\n{edits}\n]" if edits else "[]"
    return f"[\n{strip_p},\n{json_string(add_p)},\n{strip_s},\n{json_string(add_s)},\n{edits}\n]"


def _counts_rows(table: dict, item_text):
    """The JSON texts of the lexicon's or the scripts' rows, sorted by key:
    [form or suffix, upos, [[item, count], ...]], where item_text(item) is
    the JSON text of a lemma or a script."""
    for (name, upos), counter in sorted(table.items()):
        pairs = ",\n".join([f"[\n{item_text(item)},\n{counter[item]}\n]"
                            for item in sorted(counter)])
        pairs = f"[\n{pairs}\n]" if pairs else "[]"
        yield f"[\n{json_string(name)},\n{json_string(upos)},\n{pairs}\n]"


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
    rows = payload["lexicon"]
    lexicon = {(form, upos): dict(items) for form, upos, items in rows}
    _check_counts("lexicon", rows, lexicon)
    rows = payload["scripts"]
    scripts = {}
    for suffix, upos, items in rows:
        scripts[(suffix, upos)] = counter = {}
        for (strip_p, add_p, strip_s, add_s, interior), count in items:
            counter[(strip_p, add_p, strip_s, add_s, tuple(map(tuple, interior)))] = count
    _check_counts("scripts", rows, scripts)
    # Each column is checked at once: a script's strip lengths and interior
    # edit offsets must be ints >= 0, as derive_edit_script makes them.  Every
    # stored key is checked, as 1.0 and True are equal to 1 in a set.
    keys = list(chain.from_iterable(scripts.values()))
    edits = list(chain.from_iterable(map(itemgetter(4), keys)))
    if set(map(len, edits)) - {3}:
        raise ValueError("scripts: an interior edit is not [offset, old, new]")
    offsets = map(itemgetter(0), edits)
    lengths = list(chain(map(itemgetter(0), keys), map(itemgetter(2), keys), offsets))
    if set(map(type, lengths)) - {int} or min(lengths, default=0) < 0:
        bad = next(n for n in lengths if n.__class__ is not int or n < 0)
        raise ValueError(f"scripts: strip length or offset {bad!r} is not an int >= 0")
    # str.join raises TypeError for a form, UPOS, lemma, suffix or script
    # string that is not a str; each distinct script is checked once.
    for table in (lexicon, lexicon.values(), scripts):
        "".join(chain.from_iterable(table))
    for _, add_p, _, add_s, interior in set(keys):
        "".join([add_p, add_s] + [text for _, old, new in interior for text in (old, new)])
    provenance = read_provenance(payload["provenance"], ("datasets", "was_continued"))
    return LemmatizerModel(lexicon, scripts, provenance)


def _check_counts(name: str, rows: list, table: dict) -> None:
    """Check a loaded lexicon or scripts table against the file's rows: no
    row repeats a key, every UPOS is one training keeps (a UPOS tag other
    than SYM), each row's items are a list in which no item repeats, and
    every count is an int >= 1."""
    if len(table) != len(rows):
        raise ValueError(f"{name}: a (form or suffix, UPOS) row repeats")
    upos = set(map(itemgetter(1), table)) - LEMMA_UPOS
    if upos:
        raise ValueError(f"{name}: UPOS {sorted(map(repr, upos))[0]} is not a UPOS tag "
                         "other than SYM")
    items = list(map(itemgetter(2), rows))
    if set(map(type, items)) - {list}:
        raise ValueError(f"{name}: a row's items are not a list")
    counts = list(chain.from_iterable(map(dict.values, table.values())))
    if len(counts) != sum(map(len, items)):
        raise ValueError(f"{name}: an item repeats within a row")
    if set(map(type, counts)) - {int} or min(counts, default=1) < 1:
        bad = next(c for c in counts if c.__class__ is not int or c < 1)
        raise ValueError(f"{name}: count {bad!r} is not an int >= 1")
