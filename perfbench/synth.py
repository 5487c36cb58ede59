"""Seeded synthetic Medieval-Latin-like data for the benchmark.

generate(out_dir, seed, genre_sentences, ud_sentences, heldout_sentences)
writes out_dir/registry.cfg (the five Medieval Latin genres and two UD
treebanks, same layout as the committed mini registry), one CoNLL-U file
per dataset, and out_dir/heldout.conllu, a corpus for annotation that no
dataset contains.
Stdlib only; the same arguments give byte-identical files.  run.py picks
the sizes per workload.

Each property is there to move a cost the mini fixtures hide:

* Open Zipfian vocabulary.  Lexemes are random stems drawn by rank with
  Zipf's law at its classic exponent of 1, each with an inflection class,
  so most forms are rare and a held-out text has many forms never seen in
  training.  Unseen forms send the lemmatizer past its lexicon into the
  suffix-script cascade, and the tagger's feature vocabulary and weight
  table grow with the corpus as they do on real treebanks.  The vocabulary
  sizes per class are chosen, not measured.
* A large composite UFeats tagset.  Nouns, adjectives (two degrees) and
  verbs (mood x tense x voice x person x number) give about 150 distinct
  feature bundles, against about 13 in the mini fixtures; real UD Latin
  treebanks have several hundred.  Tagger scoring is linear in the tagset
  size, so this is where tagger cost shows.  Paradigm cells are drawn
  uniformly, so even a small corpus holds nearly the whole tagset and its
  size hardly varies with the seed.
* Sentence lengths from the package's bundled reference registry.  Each
  generated dataset is named after a declared one and its sentences average
  that dataset's declared tokens per sentence (punctuation included): 16.5
  to 30.2 for the genres, 17.2 (ITTB) and 26.6 (LLCT) for the two medieval
  UD treebanks, and 23.6, the genres' pooled average, for the held-out
  corpus.  Tagging and lemmatizing cost grow with sentence length, so this
  is what sets the per-sentence latencies.  Lengths spread by up to 60% of
  the average around it in +/- pairs (a chosen shape, not a measured one)
  and are scaled and rounded on the running total, so the tokens of a file
  of any size are its sentence count times the declared average, rounded.
* Foreign and proper-name tokens in the held-out corpus only, one in every
  FOREIGN_EVERY-th sentence.  Their endings (-ek, -ow, -yn, ...) never
  occur in training, so for most of them no (suffix, UPOS) key matches and the
  lemmatizer falls through to its pooled fallback, as real text with names
  and loanwords does.  The rate is set so that, on synth-annotate, the
  pooled fallback answers about the share of lemma queries it answered in
  a 30k-token prototype of that workload (2.3%).
* Spelling variants in the held-out corpus only (v for consonantal u, -ci-
  for -ti-), which the bundled normalization ruleset maps back to the gold
  orthography, on a chosen 6% of held-out tokens.  Gold lemmas never
  contain v or an internal ci.
"""

from __future__ import annotations

import bisect
import configparser
import itertools
import os
import random
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from make_fixtures import (  # noqa: E402
    CORE, GENRE_EXTRA, PUNCT, UD_EXTRA, make_sentence, write_doc)
from medlatin.conllu import Document  # noqa: E402

# Dataset names as declared in the reference registry; files are name.lower().conllu.
GENRES = ("Annals", "Biography", "Normative", "Proceedings", "Science")
TREEBANKS = ("ITTB", "LLCT")
REFERENCE_REGISTRY = os.path.join(ROOT, "src", "medlatin", "data", "reference_registry.cfg")
# Sentence length offsets as shares of the average, in +/- pairs.
LENGTH_OFFSETS = (0.0, -0.3, 0.3, -0.6, 0.6, -0.15, 0.15, -0.45, 0.45)

CASES = ("Nom", "Gen", "Dat", "Acc", "Abl")
NUMBERS = ("Sing", "Plur")

# Inflection classes: (lemma ending, {(case, number): form ending}).
NOUN_CLASSES = (
    ("a", "Fem", ("a", "ae", "ae", "am", "a", "ae", "arum", "is", "as", "is")),
    ("us", "Masc", ("us", "i", "o", "um", "o", "i", "orum", "is", "os", "is")),
    ("um", "Neut", ("um", "i", "o", "um", "o", "a", "orum", "is", "a", "is")),
    ("or", "Masc", ("or", "oris", "ori", "orem", "ore", "ores", "orum", "oribus",
                    "ores", "oribus")),
    ("men", "Neut", ("men", "minis", "mini", "men", "mine", "mina", "minum",
                     "minibus", "mina", "minibus")),
    ("tas", "Fem", ("tas", "tatis", "tati", "tatem", "tate", "tates", "tatum",
                    "tatibus", "tates", "tatibus")),
)
ADJ_GENDERS = (
    ("Masc", ("us", "i", "o", "um", "o", "i", "orum", "is", "os", "is")),
    ("Fem", ("a", "ae", "ae", "am", "a", "ae", "arum", "is", "as", "is")),
    ("Neut", ("um", "i", "o", "um", "o", "a", "orum", "is", "a", "is")),
)
ADJ_DEGREES = (("Pos", ""), ("Sup", "issim"))

PERSONS = ("1", "2", "3")
# Verb classes: (lemma ending, {(mood, tense, voice): six person/number endings}).
VERB_CLASSES = (
    ("o", {
        ("Ind", "Pres", "Act"): ("o", "as", "at", "amus", "atis", "ant"),
        ("Ind", "Imp", "Act"): ("abam", "abas", "abat", "abamus", "abatis", "abant"),
        ("Ind", "Fut", "Act"): ("abo", "abis", "abit", "abimus", "abitis", "abunt"),
        ("Ind", "Perf", "Act"): ("aui", "auisti", "auit", "auimus", "auistis", "auerunt"),
        ("Sub", "Pres", "Act"): ("em", "es", "et", "emus", "etis", "ent"),
        ("Sub", "Imp", "Act"): ("arem", "ares", "aret", "aremus", "aretis", "arent"),
        ("Ind", "Pres", "Pass"): ("or", "aris", "atur", "amur", "amini", "antur"),
        ("Ind", "Imp", "Pass"): ("abar", "abaris", "abatur", "abamur", "abamini",
                                 "abantur"),
    }),
    ("eo", {
        ("Ind", "Pres", "Act"): ("eo", "es", "et", "emus", "etis", "ent"),
        ("Ind", "Imp", "Act"): ("ebam", "ebas", "ebat", "ebamus", "ebatis", "ebant"),
        ("Ind", "Fut", "Act"): ("ebo", "ebis", "ebit", "ebimus", "ebitis", "ebunt"),
        ("Ind", "Perf", "Act"): ("ui", "uisti", "uit", "uimus", "uistis", "uerunt"),
        ("Sub", "Pres", "Act"): ("eam", "eas", "eat", "eamus", "eatis", "eant"),
        ("Sub", "Imp", "Act"): ("erem", "eres", "eret", "eremus", "eretis", "erent"),
        ("Ind", "Pres", "Pass"): ("eor", "eris", "etur", "emur", "emini", "entur"),
        ("Ind", "Imp", "Pass"): ("ebar", "ebaris", "ebatur", "ebamur", "ebamini",
                                 "ebantur"),
    }),
    ("o", {
        ("Ind", "Pres", "Act"): ("o", "is", "it", "imus", "itis", "unt"),
        ("Ind", "Imp", "Act"): ("ebam", "ebas", "ebat", "ebamus", "ebatis", "ebant"),
        ("Ind", "Fut", "Act"): ("am", "es", "et", "emus", "etis", "ent"),
        ("Ind", "Perf", "Act"): ("si", "sisti", "sit", "simus", "sistis", "serunt"),
        ("Sub", "Pres", "Act"): ("am", "as", "at", "amus", "atis", "ant"),
        ("Sub", "Imp", "Act"): ("erem", "eres", "eret", "eremus", "eretis", "erent"),
        ("Ind", "Pres", "Pass"): ("or", "eris", "itur", "imur", "imini", "untur"),
        ("Ind", "Imp", "Pass"): ("ebar", "ebaris", "ebatur", "ebamur", "ebamini",
                                 "ebantur"),
    }),
)
VERB_NONFINITE = (("are", "Inf"), ("ere", "Inf"))

CLOSED = (
    (0.30, (("et", "et", "CCONJ", "_"), ("sed", "sed", "CCONJ", "_"),
            ("aut", "aut", "CCONJ", "_"), ("nec", "nec", "CCONJ", "_"))),
    (0.30, (("in", "in", "ADP", "_"), ("ad", "ad", "ADP", "_"), ("cum", "cum", "ADP", "_"),
            ("de", "de", "ADP", "_"), ("ex", "ex", "ADP", "_"), ("per", "per", "ADP", "_"),
            ("pro", "pro", "ADP", "_"), ("sine", "sine", "ADP", "_"))),
    (0.10, (("non", "non", "PART", "Polarity=Neg"),)),
    (0.10, (("quod", "quod", "SCONJ", "_"), ("ut", "ut", "SCONJ", "_"),
            ("si", "si", "SCONJ", "_"))),
    (0.20, (("est", "sum", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
            ("sunt", "sum", "AUX", "Mood=Ind|Number=Plur|Person=3|Tense=Pres|VerbForm=Fin"),
            ("erat", "sum", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Imp|VerbForm=Fin"),
            ("fuit", "sum", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Perf|VerbForm=Fin"),
            ("qui", "qui", "PRON", "Case=Nom|Gender=Masc|Number=Sing|PronType=Rel"),
            ("quae", "qui", "PRON", "Case=Nom|Gender=Fem|Number=Sing|PronType=Rel"),
            ("hic", "hic", "DET", "Case=Nom|Gender=Masc|Number=Sing|PronType=Dem"),
            ("hoc", "hic", "DET", "Case=Nom|Gender=Neut|Number=Sing|PronType=Dem"),
            ("ita", "ita", "ADV", "_"), ("tunc", "tunc", "ADV", "_"))),
)

# Open-class share of tokens before the closing PUNCT; the rest is closed-class.
OPEN_SHARE = (("NOUN", 0.34), ("VERB", 0.22), ("ADJ", 0.14), ("PROPN", 0.04))
COMMA = (",", ",", "PUNCT", "_")

ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "br", "cr", "gr",
          "pr", "tr", "st", "sp")
VOWELS = ("a", "e", "i", "o", "u", "a", "e", "i")
CODAS = ("", "", "", "n", "r", "s", "l", "m")

FOREIGN_SYLLABLES = ("wal", "ber", "hel", "kon", "ryk", "zdz", "jan", "mir", "gos", "wit",
                     "bog", "kaz", "stan", "hen", "rad", "wol")
FOREIGN_ENDINGS = ("ek", "ow", "yn", "ich", "aw", "uk", "sz", "wyk", "off", "ij")


def _stem(rng: random.Random) -> str:
    while True:
        stem = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
                       for _ in range(rng.randint(1, 3)))
        if "v" not in stem and "ci" not in stem and len(stem) >= 3:
            return stem


def _feats(**pairs: str) -> str:
    return "|".join(f"{k}={v}" for k, v in sorted(pairs.items()))


def _paradigm(upos: str, rng: random.Random) -> tuple[str, list[tuple[str, str, str, str]]]:
    """A new lexeme: its lemma and every (form, lemma, upos, feats) cell."""
    stem = _stem(rng)
    cells = []
    if upos in ("NOUN", "PROPN"):
        lemma_end, gender, endings = rng.choice(NOUN_CLASSES[:3] if upos == "PROPN"
                                                else NOUN_CLASSES)
        lemma = stem + lemma_end
        for (number, case), ending in zip(itertools.product(NUMBERS, CASES), endings):
            form = stem + ending
            if upos == "PROPN":
                form, lemma = form.capitalize(), lemma.capitalize()
            cells.append((form, lemma, upos, _feats(Case=case, Gender=gender,
                                                     Number=number)))
    elif upos == "ADJ":
        lemma = stem + "us"
        for degree, infix in ADJ_DEGREES:
            for gender, endings in ADJ_GENDERS:
                for (number, case), ending in zip(itertools.product(NUMBERS, CASES), endings):
                    cells.append((stem + infix + ending, lemma, upos,
                                  _feats(Case=case, Degree=degree, Gender=gender,
                                         Number=number)))
    else:
        klass = rng.randrange(len(VERB_CLASSES))
        lemma_end, table = VERB_CLASSES[klass]
        lemma = stem + lemma_end
        for (mood, tense, voice), endings in table.items():
            for (number, person), ending in zip(itertools.product(NUMBERS, PERSONS), endings):
                cells.append((stem + ending, lemma, upos,
                              _feats(Mood=mood, Number=number, Person=person, Tense=tense,
                                     VerbForm="Fin", Voice=voice)))
        ending, verbform = VERB_NONFINITE[min(klass, 1)]
        cells.append((stem + ending, lemma, upos, _feats(Tense="Pres", VerbForm=verbform,
                                                          Voice="Act")))
    return lemma, cells


FOREIGN_EVERY = 5
VOCABULARY = {"NOUN": 1500, "VERB": 900, "ADJ": 600, "PROPN": 150}
ZIPF_EXPONENT = 1.0


class Lexicon:
    """Zipf-ranked lexemes per open class, each with its full paradigm."""

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:lexicon")
        seen: set[str] = set()
        self._lexemes: dict[str, list[list[tuple]]] = {}
        self._cdf: dict[str, list[float]] = {}
        for upos, size in VOCABULARY.items():
            lexemes = []
            while len(lexemes) < size:
                lemma, cells = _paradigm(upos, rng)
                if lemma.lower() not in seen:
                    seen.add(lemma.lower())
                    lexemes.append(cells)
            self._lexemes[upos] = lexemes
            self._cdf[upos] = list(itertools.accumulate(
                rank ** -ZIPF_EXPONENT for rank in range(1, size + 1)))

    def draw(self, upos: str, rng: random.Random) -> tuple:
        """A lexeme by Zipf rank, then one of its paradigm cells uniformly."""
        cdf = self._cdf[upos]
        rank = bisect.bisect_left(cdf, rng.random() * cdf[-1])
        return rng.choice(self._lexemes[upos][rank])


def _closed(rng: random.Random) -> tuple:
    x = rng.random()
    for share, items in CLOSED:
        if x < share:
            return rng.choice(items)
        x -= share
    return rng.choice(CLOSED[-1][1])


def _token(lexicon: Lexicon, rng: random.Random) -> tuple:
    x = rng.random()
    for upos, share in OPEN_SHARE:
        if x < share:
            return lexicon.draw(upos, rng)
        x -= share
    return _closed(rng)


def _foreign(rng: random.Random) -> tuple:
    word = "".join(rng.choice(FOREIGN_SYLLABLES) for _ in range(rng.randint(1, 2)))
    word += rng.choice(FOREIGN_ENDINGS)
    if rng.random() < 0.7:
        return (word.capitalize(), word.capitalize(), "PROPN", "_")
    return (word, word, "X", "Foreign=Yes")


def _variant(item: tuple) -> tuple:
    """Medieval spelling of the form: v for consonantal u, -ci- for -ti-."""
    form = item[0]
    consonantal = re.search(r"(?<=.)u(?=[aeio])", form)
    if consonantal:
        form = form[:consonantal.start()] + "v" + form[consonantal.end():]
    elif "ti" in form[1:-2]:
        at = form.index("ti", 1)
        form = form[:at] + "ci" + form[at + 2:]
    return (form,) + item[1:]


def declared_averages() -> dict[str, float]:
    """Declared tokens per sentence of each reference dataset, plus
    ``heldout``: the genres' pooled average (their tokens over their sentences)."""
    parser = configparser.ConfigParser()
    with open(REFERENCE_REGISTRY, encoding="utf-8") as fh:
        parser.read_file(fh)
    declared = {section.split(":", 1)[1]: parser[section] for section in parser.sections()}
    averages = {name: float(d["avg"]) for name, d in declared.items()}
    averages["heldout"] = (sum(int(declared[g]["tokens"]) for g in GENRES)
                           / sum(int(declared[g]["sentences"]) for g in GENRES))
    return averages


def sentence_lengths(average: float, n_sentences: int) -> list[int]:
    """Tokens per sentence: LENGTH_OFFSETS around the average, scaled and
    rounded on the running total so the lengths sum to
    round(average * n_sentences) whatever n_sentences is."""
    shape = [1.0 + LENGTH_OFFSETS[i % len(LENGTH_OFFSETS)] for i in range(n_sentences)]
    scale = average * n_sentences / sum(shape)
    lengths, total = [], 0.0
    for share in shape:
        previous = round(total)
        total += share * scale
        lengths.append(round(total) - previous)
    return lengths


def corpus(name: str, lexicon: Lexicon, n_sentences: int, seed: int, average: float,
           foreign_every: int = 0, variant_share: float = 0.0) -> Document:
    """n_sentences sentences averaging ``average`` tokens, each ending in a
    PUNCT and, from 13 tokens on, holding one comma.  Every seed gives the
    same multiset of sentence lengths and, with foreign_every=k, one foreign
    token in every k-th sentence, so the amount of work in a corpus hardly
    depends on the seed."""
    rng = random.Random(f"{seed}:{name}")
    lengths = sentence_lengths(average, n_sentences)
    rng.shuffle(lengths)
    sentences = []
    for idx, tokens in enumerate(lengths):
        length = tokens - 2 if tokens >= 13 else tokens - 1
        items = []
        for _ in range(length):
            item = _token(lexicon, rng)
            if rng.random() < variant_share:
                item = _variant(item)
            items.append(item)
        if foreign_every and idx % foreign_every == 0:
            items[rng.randrange(length)] = _foreign(rng)
        if tokens >= 13:
            items.insert(rng.randint(3, length - 2), COMMA)
        sentences.append(make_sentence(items + [PUNCT], f"{name}-s{idx + 1}"))
    return Document(tuple(sentences), name)


def mini_heldout(path: str, seed: int, n_sentences: int) -> None:
    """A held-out corpus in the mini fixtures' own vocabulary (their core and
    per-dataset word pools, tests/make_fixtures.py), for annotating with
    models trained on the mini registry.  Its sentences have the held-out
    lengths of the generated registries: the mini fixtures' 4 to 8 tokens
    take a third of a millisecond, too short a span to time steadily on a
    shared host.  With 1000 distinct sentences ten lie beyond the p99
    sentence latency."""
    pool = CORE + [item for extra in (*GENRE_EXTRA.values(), *UD_EXTRA.values())
                   for item in extra]
    rng = random.Random(f"{seed}:mini-heldout")
    lengths = sentence_lengths(declared_averages()["heldout"], n_sentences)
    rng.shuffle(lengths)
    sentences = [make_sentence([rng.choice(pool) for _ in range(tokens - 1)] + [PUNCT],
                               f"heldout-s{idx + 1}")
                 for idx, tokens in enumerate(lengths)]
    write_doc(Document(tuple(sentences), "heldout"), path)


def generate(out_dir: str, seed: int, genre_sentences: int, ud_sentences: int,
             heldout_sentences: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lexicon = Lexicon(seed)
    averages = declared_averages()
    cfg = [f"# synthetic registry, seed {seed}: 5 genres + 2 treebanks"]
    for names, kind, size in ((GENRES, "efontes_genre", genre_sentences),
                              (TREEBANKS, "ud_treebank", ud_sentences)):
        for name in names:
            doc = corpus(name.lower(), lexicon, size, seed, averages[name])
            write_doc(doc, os.path.join(out_dir, f"{name.lower()}.conllu"))
            cfg += ["", f"[dataset:{name}]", f"kind = {kind}", f"paths = {name.lower()}.conllu"]
    with open(os.path.join(out_dir, "registry.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(cfg) + "\n")
    heldout = corpus("heldout", lexicon, heldout_sentences, seed, averages["heldout"],
                     foreign_every=FOREIGN_EVERY, variant_share=0.06)
    write_doc(heldout, os.path.join(out_dir, "heldout.conllu"))

