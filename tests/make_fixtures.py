"""Regenerate the static test fixtures.

Run from the repo root:  PYTHONPATH=src python tests/make_fixtures.py
(or python tests/make_fixtures.py after pip install -e .)

Everything is seeded, so reruns reproduce the committed files byte for
byte.  Fixtures are generated through the package's own serializer, which
is what makes them canonical (sorted feature keys, LF endings, one blank
line per sentence) and therefore byte-exact round-trip material.
"""

from __future__ import annotations

import os
import random

from medlatin.conllu import Document, Sentence, Token, serialize
from medlatin.registry import compute_stats

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

PUNCT = (".", ".", "PUNCT", "_")

# (form, lemma, upos, feats) pools; feats strings use sorted keys.
CORE = [
    ("terra", "terra", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
    ("terram", "terra", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
    ("terrae", "terra", "NOUN", "Case=Gen|Gender=Fem|Number=Sing"),
    ("aqua", "aqua", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
    ("aquam", "aqua", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
    ("dominus", "dominus", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
    ("dominum", "dominus", "NOUN", "Case=Acc|Gender=Masc|Number=Sing"),
    ("domini", "dominus", "NOUN", "Case=Gen|Gender=Masc|Number=Sing"),
    ("rex", "rex", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
    ("regem", "rex", "NOUN", "Case=Acc|Gender=Masc|Number=Sing"),
    ("laudat", "laudo", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ("laudant", "laudo", "VERB", "Mood=Ind|Number=Plur|Person=3|Tense=Pres|VerbForm=Fin"),
    ("habet", "habeo", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ("habent", "habeo", "VERB", "Mood=Ind|Number=Plur|Person=3|Tense=Pres|VerbForm=Fin"),
    ("dicit", "dico", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ("bonus", "bonus", "ADJ", "Case=Nom|Degree=Pos|Gender=Masc|Number=Sing"),
    ("bonum", "bonus", "ADJ", "Case=Acc|Degree=Pos|Gender=Masc|Number=Sing"),
    ("magnus", "magnus", "ADJ", "Case=Nom|Degree=Pos|Gender=Masc|Number=Sing"),
    ("et", "et", "CCONJ", "_"),
    ("in", "in", "ADP", "_"),
    ("non", "non", "PART", "Polarity=Neg"),
    ("est", "sum", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ("qui", "qui", "PRON", "Case=Nom|Gender=Masc|Number=Sing|PronType=Rel"),
]

GENRE_EXTRA = {
    "annals": [
        ("annus", "annus", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
        ("anno", "annus", "NOUN", "Case=Abl|Gender=Masc|Number=Sing"),
        ("obiit", "obeo", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Past|VerbForm=Fin"),
        ("dux", "dux", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
        ("ducem", "dux", "NOUN", "Case=Acc|Gender=Masc|Number=Sing"),
    ],
    "biography": [
        ("Kinga", "kinga", "PROPN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("sancta", "sanctus", "ADJ", "Case=Nom|Degree=Pos|Gender=Fem|Number=Sing"),
        ("uita", "uita", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("uitam", "uita", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
        ("uidet", "uideo", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
        ("miracula", "miraculum", "NOUN", "Case=Nom|Gender=Neut|Number=Plur"),
    ],
    "normative": [
        ("statutum", "statutum", "NOUN", "Case=Nom|Gender=Neut|Number=Sing"),
        ("statuta", "statutum", "NOUN", "Case=Nom|Gender=Neut|Number=Plur"),
        ("ecclesia", "ecclesia", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("ecclesiam", "ecclesia", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
        ("debet", "debeo", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ],
    "proceedings": [
        ("iudicium", "iudicium", "NOUN", "Case=Nom|Gender=Neut|Number=Sing"),
        ("causa", "causa", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("causam", "causa", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
        ("coram", "coram", "ADP", "_"),
        ("testis", "testis", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
        ("graciam", "gratia", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
    ],
    "science": [
        ("linea", "linea", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("lineam", "linea", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
        ("angulus", "angulus", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
        ("angulum", "angulus", "NOUN", "Case=Acc|Gender=Masc|Number=Sing"),
        ("aequalis", "aequalis", "ADJ", "Case=Nom|Degree=Pos|Gender=Masc|Number=Sing"),
        ("AB", "_", "SYM", "_"),
        ("CD", "_", "SYM", "_"),
        ("1amXI", "_", "SYM", "_"),
    ],
}

# The two synthetic "UD treebank" sets share the core vocabulary but carry
# a few conflicting lemma conventions (v for u, -ci- for -ti-), the way
# real treebanks disagree with genre gold.
UD_EXTRA = {
    "ud_alpha": [
        ("uidet", "video", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
        ("ciuitas", "civitas", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("seruus", "servus", "NOUN", "Case=Nom|Gender=Masc|Number=Sing"),
    ],
    "ud_beta": [
        ("graciam", "gracia", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
        ("porta", "porta", "NOUN", "Case=Nom|Gender=Fem|Number=Sing"),
        ("portam", "porta", "NOUN", "Case=Acc|Gender=Fem|Number=Sing"),
    ],
}


def feats_tuple(feats: str) -> tuple:
    if feats == "_":
        return ()
    return tuple(sorted(tuple(kv.split("=", 1)) for kv in feats.split("|")))


def make_token(token_id: int, item: tuple, misc: str = "_") -> Token:
    form, lemma, upos, feats = item
    return Token(token_id, form, lemma, upos, feats_tuple(feats), misc)


def make_sentence(items: list[tuple], sent_id: str) -> Sentence:
    tokens = tuple(make_token(i + 1, item) for i, item in enumerate(items))
    text = " ".join(item[0] for item in items)
    comments = (f"# sent_id = {sent_id}", f"# text = {text}")
    return Sentence(tokens, sent_id, comments)


def sample_corpus(name: str, pool: list[tuple], n_sentences: int, seed: int) -> Document:
    rng = random.Random(seed)
    sentences = []
    for idx in range(n_sentences):
        length = rng.randint(3, 7)
        items = [rng.choice(pool) for _ in range(length)] + [PUNCT]
        sentences.append(make_sentence(items, f"{name}-s{idx + 1}"))
    return Document(tuple(sentences), name)


def write_doc(doc: Document, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize(doc))


def toy_suffix_corpus(n_sentences: int = 500, seed: int = 7) -> Document:
    """Separable toy language: the tag is fully determined by the final letter.

    -a NOUN, -t VERB, -x ADJ, '.' PUNCT; UFeats follow the tag the same way.
    """
    rng = random.Random(seed)
    stems = ["terr", "aqu", "vi", "caus", "lun", "silv", "mens", "port", "ros", "stell"]
    nouns = [(s + "a", s + "a", "NOUN", "Case=Nom") for s in stems]
    verbs = [(s + "at", s + "o", "VERB", "Tense=Pres") for s in stems]
    adjs = [(s + "ax", s + "ax", "ADJ", "Degree=Pos") for s in stems]
    pool = nouns + verbs + adjs
    sentences = []
    for idx in range(n_sentences):
        length = rng.randint(4, 8)
        items = [rng.choice(pool) for _ in range(length)] + [PUNCT]
        sentences.append(make_sentence(items, f"toy-s{idx + 1}"))
    return Document(tuple(sentences), "toy")


def special_roundtrip_docs() -> list[tuple[str, Document]]:
    """Hand-built documents exercising corners: opaque dependency columns,
    misc values, UTF-8, SYM tokens, empty feats, multi-line comments."""
    docs = []

    deps = Document((Sentence(
        (
            Token(1, "regina", "regina", "NOUN", feats_tuple("Case=Nom|Gender=Fem|Number=Sing"),
                  "SpaceAfter=No", ("A1|grn1|casA", "2", "nsubj", "2:nsubj")),
            Token(2, "laudat", "laudo", "VERB",
                  feats_tuple("Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
                  "_", ("B3", "0", "root", "0:root")),
            Token(3, ".", ".", "PUNCT", (), "_", ("Punc", "2", "punct", "2:punct")),
        ),
        "deps-s1",
        ("# sent_id = deps-s1", "# text = regina laudat."),
    ),), "deps")
    docs.append(("rt_opaque_columns.conllu", deps))

    sym = Document((Sentence(
        (
            Token(1, "angulus", "angulus", "NOUN", feats_tuple("Case=Nom|Gender=Masc|Number=Sing")),
            Token(2, "AB", "_", "SYM"),
            Token(3, "est", "sum", "AUX",
                  feats_tuple("Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin")),
            Token(4, "1amXI", "_", "SYM"),
            Token(5, ".", ".", "PUNCT"),
        ),
        "sym-s1",
        ("# sent_id = sym-s1", "# text = angulus AB est 1amXI ."),
    ),), "sym")
    docs.append(("rt_sym_tokens.conllu", sym))

    bare = Document((
        Sentence((
            Token(1, "uerbum", "uerbum", "NOUN"),
            Token(2, "manet", "maneo", "VERB"),
        )),
        Sentence((
            Token(1, "omnia", "omnis", "ADJ"),
            Token(2, "mutantur", "muto", "VERB"),
        )),
    ), "bare")
    docs.append(("rt_no_comments_no_feats.conllu", bare))

    utf8 = Document((Sentence(
        (
            Token(1, "Kraków", "kraków", "PROPN", feats_tuple("Case=Nom"), "Translit=Cracovia"),
            Token(2, "ciuitas", "ciuitas", "NOUN", feats_tuple("Case=Nom|Gender=Fem|Number=Sing")),
            Token(3, "est", "sum", "AUX"),
        ),
        "utf8-s1",
        ("# sent_id = utf8-s1", "# text = Kraków ciuitas est", "# source = liber maior"),
    ),), "utf8")
    docs.append(("rt_utf8_misc.conllu", utf8))

    empty = Document((), "empty")
    docs.append(("rt_empty.conllu", empty))

    underscore_upos = Document((Sentence(
        (
            Token(1, "item", "item", "_"),
            Token(2, "notatum", "_", "_"),
        ),
        None,
        ("# unannotated fragment",),
    ),), "underscore")
    docs.append(("rt_unannotated.conllu", underscore_upos))

    return docs


def main() -> None:
    os.makedirs(os.path.join(FIXTURES, "roundtrip"), exist_ok=True)
    os.makedirs(os.path.join(FIXTURES, "mini"), exist_ok=True)

    write_doc(toy_suffix_corpus(), os.path.join(FIXTURES, "toy_suffix_tags.conllu"))

    mini_sizes = {"annals": 36, "biography": 48, "normative": 40,
                  "proceedings": 44, "science": 42}
    declared = {}
    for seed, (genre, size) in enumerate(sorted(mini_sizes.items()), start=11):
        doc = sample_corpus(genre, CORE + GENRE_EXTRA[genre], size, seed)
        write_doc(doc, os.path.join(FIXTURES, "mini", f"{genre}.conllu"))
        declared[genre] = compute_stats(doc)
    for seed, ud in enumerate(sorted(UD_EXTRA), start=31):
        doc = sample_corpus(ud, CORE + UD_EXTRA[ud], 60, seed)
        write_doc(doc, os.path.join(FIXTURES, "mini", f"{ud}.conllu"))
        declared[ud] = compute_stats(doc)

    cfg_lines = ["# synthetic mini-registry: 5 genres + 2 treebanks"]
    for genre in sorted(mini_sizes):
        stats = declared[genre]
        cfg_lines += [
            "", f"[dataset:{genre.capitalize()}]", "kind = efontes_genre",
            f"paths = {genre}.conllu", f"tokens = {stats.tokens}",
            f"sentences = {stats.sentences}", f"avg = {stats.avg_tokens_per_sentence}",
        ]
    for ud in sorted(UD_EXTRA):
        stats = declared[ud]
        cfg_lines += [
            "", f"[dataset:{ud}]", "kind = ud_treebank",
            f"paths = {ud}.conllu", f"tokens = {stats.tokens}",
            f"sentences = {stats.sentences}", f"avg = {stats.avg_tokens_per_sentence}",
        ]
    with open(os.path.join(FIXTURES, "mini", "registry.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(cfg_lines) + "\n")

    for name, doc in special_roundtrip_docs():
        write_doc(doc, os.path.join(FIXTURES, "roundtrip", name))
    pools = {"annals": CORE + GENRE_EXTRA["annals"],
             "biography": CORE + GENRE_EXTRA["biography"],
             "normative": CORE + GENRE_EXTRA["normative"],
             "proceedings": CORE + GENRE_EXTRA["proceedings"],
             "science": CORE + GENRE_EXTRA["science"],
             "ud_alpha": CORE + UD_EXTRA["ud_alpha"],
             "ud_beta": CORE + UD_EXTRA["ud_beta"]}
    seed = 101
    for base in sorted(pools):
        for part in (1, 2):
            doc = sample_corpus(f"{base}_{part}", pools[base], 8 + part, seed)
            write_doc(doc, os.path.join(FIXTURES, "roundtrip", f"rt_{base}_{part}.conllu"))
            seed += 1
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
