import os
from json.encoder import encode_basestring as json_string

import pytest

from medlatin.analysis import extract_patterns
from medlatin.conllu import Document, Sentence, Token

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
ROUNDTRIP_DIR = os.path.join(FIXTURES, "roundtrip")
MINI_DIR = os.path.join(FIXTURES, "mini")
MINI_REGISTRY = os.path.join(MINI_DIR, "registry.cfg")
TOY_CORPUS = os.path.join(FIXTURES, "toy_suffix_tags.conllu")


def alignment_cost(gold: str, pred: str) -> int:
    """The number of edits in the alignment extract_patterns walks.

    In a minimal alignment no run of edits holds both a deletion and an
    insertion, since one substitution would cost less; so each run costs
    the length of its longer side.
    """
    return sum(max(len(g), len(p)) for g, p, _ in extract_patterns(gold, pred))


def feats(spec: str) -> tuple:
    if not spec or spec == "_":
        return ()
    return tuple(sorted(tuple(kv.split("=", 1)) for kv in spec.split("|")))


def tok(i, form, lemma="_", upos="_", ufeats="_", misc="_"):
    return Token(i, form, lemma, upos, feats(ufeats), misc)


def sent(*tokens, comments=()):
    return Sentence(tuple(tokens), tuple(comments))


def doc(*sentences, name="test"):
    return Document(tuple(sentences), name)


def simple_doc(rows, name="test"):
    """rows: list of sentences, each a list of (form, lemma, upos[, feats]) tuples."""
    sentences = []
    for row in rows:
        tokens = []
        for i, item in enumerate(row):
            form, lemma, upos = item[0], item[1], item[2]
            ufeats = item[3] if len(item) > 3 else "_"
            tokens.append(tok(i + 1, form, lemma, upos, ufeats))
        sentences.append(sent(*tokens))
    return doc(*sentences, name=name)


@pytest.fixture
def toy_corpus():
    from medlatin.conllu import parse_conllu
    with open(TOY_CORPUS, encoding="utf-8") as fh:
        return parse_conllu(fh.read(), source_name="toy")


# The row helpers model files were rendered with before each row became one
# f-string (formerly in medlatin.errors), kept verbatim for the reference
# writers the model-file differential tests compare against.

def json_row(*cells: str) -> str:
    """A %-format string for a JSON array of len(cells) values.

    Each cell is a conversion: %d for an int, %r for a finite float (json
    writes float.__repr__ too), %s for a string already passed through
    json_string or for JSON text.  A cell may also be literal JSON text
    without a '%' in it, such as str(an int).
    """
    return "[\n" + ",\n".join(cells) + "\n]"


def json_array(items) -> str:
    """JSON text of an array whose items are given as JSON texts."""
    body = ",\n".join(items)
    return "[\n" + body + "\n]" if body else "[]"


def json_entries(keys, values):
    """The '"key": value' texts of an object's entries, from its str keys
    in sorted order and the JSON texts of their values."""
    return map("%s: %s".__mod__, zip(map(json_string, keys), values))
