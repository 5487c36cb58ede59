import os

import pytest

from medlatin.analysis import MATCH
from medlatin.conllu import Document, Sentence, Token

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
ROUNDTRIP_DIR = os.path.join(FIXTURES, "roundtrip")
MINI_DIR = os.path.join(FIXTURES, "mini")
MINI_REGISTRY = os.path.join(MINI_DIR, "registry.cfg")
TOY_CORPUS = os.path.join(FIXTURES, "toy_suffix_tags.conllu")


def alignment_cost(ops) -> int:
    """The number of edits in an align_chars alignment."""
    return sum(1 for op in ops if op.op != MATCH)


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
