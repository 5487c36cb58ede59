import copy
import glob
import os
import pathlib
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medlatin import conllu
from medlatin.conllu import (TASKS, UPOS_TAGS, Document, InvalidUpos,
                             MalformedLine, NonConsecutiveIds, Sentence, Token,
                             UnsupportedToken, feats_from_string, parse_conllu,
                             read_conllu, relabel, serialize)
from medlatin.errors import MedlatinError

from conftest import ROUNDTRIP_DIR, doc, sent, tok

MINIMAL = (
    "1\tarma\tarma\tNOUN\t_\tCase=Nom\t_\t_\t_\t_\n"
    "2\tcano\tcano\tVERB\t_\t_\t_\t_\t_\t_\n"
    "\n"
)


def test_parse_minimal():
    d = parse_conllu(MINIMAL)
    assert len(d.sentences) == 1
    assert len(d.sentences[0].tokens) == 2
    assert d.sentences[0].tokens[0].form == "arma"
    assert d.sentences[0].tokens[1].upos == "VERB"


def test_parse_empty_string():
    d = parse_conllu("")
    assert d.sentences == ()
    assert serialize(d) == ""


def test_data_model_is_slotted_with_the_same_value_semantics():
    t = Token(1, "uideo", "uideo", "VERB", (("Mood", "Ind"),), "SpaceAfter=No",
              ("v", "0", "root", "_"))
    s = Sentence((t,), ("# sent_id = s1",))
    d = Document((s,), "annals.conllu")
    for obj in (t, s, d):
        assert not hasattr(obj, "__dict__")
        for same in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert (same, hash(same), repr(same)) == (obj, hash(obj), repr(obj))
    token_repr = ("Token(id=1, form='uideo', lemma='uideo', upos='VERB', "
                  "ufeats=(('Mood', 'Ind'),), misc='SpaceAfter=No', "
                  "extra_cols=('v', '0', 'root', '_'))")
    assert repr(t) == token_repr
    assert repr(s) == f"Sentence(tokens=({token_repr},), comments=('# sent_id = s1',))"
    assert repr(d) == f"Document(sentences=({s!r},), source_name='annals.conllu')"
    assert hash(t) == hash((1, "uideo", "uideo", "VERB", (("Mood", "Ind"),), "SpaceAfter=No",
                            ("v", "0", "root", "_")))
    assert hash(s) == hash(((t,), ("# sent_id = s1",)))
    # source_name takes no part in equality or hashing
    renamed = replace(d, source_name="other")
    assert (renamed, hash(renamed)) == (d, hash(d)) and renamed.source_name == "other"
    assert hash(d) == hash(((s,),))
    assert Token(1, "uideo") == Token(1, "uideo", "_", "_", (), "_", ("_",) * 4)
    relemmatized = replace(t, lemma="video")
    assert relemmatized != t and (t.lemma, relemmatized.lemma) == ("uideo", "video")
    assert replace(relemmatized, lemma="uideo") == t
    with pytest.raises(FrozenInstanceError):
        t.lemma = "video"


def test_leading_byte_order_mark_is_dropped():
    assert parse_conllu("\ufeff" + MINIMAL) == parse_conllu(MINIMAL)
    assert serialize(parse_conllu("\ufeff" + MINIMAL)) == MINIMAL
    with pytest.raises(MalformedLine) as exc:
        parse_conllu("\ufeff\ufeff" + MINIMAL)
    assert exc.value.line_no == 1


def test_parse_nine_fields_is_malformed():
    bad = "1\tarma\tarma\tNOUN\t_\tCase=Nom\t_\t_\t_\n\n"
    with pytest.raises(MalformedLine) as exc:
        parse_conllu(bad)
    assert exc.value.line_no == 1


def test_feats_are_canonicalized():
    text = "1\tarma\tarma\tNOUN\t_\tNumber=Sing|Case=Nom\t_\t_\t_\t_\n\n"
    d = parse_conllu(text)
    assert d.sentences[0].tokens[0].ufeats == (("Case", "Nom"), ("Number", "Sing"))
    assert d.sentences[0].tokens[0].feats_string() == "Case=Nom|Number=Sing"


def test_duplicate_feat_key_rejected_at_parse():
    text = "1\tarma\tarma\tNOUN\t_\tCase=Nom|Case=Acc\t_\t_\t_\t_\n\n"
    with pytest.raises(MalformedLine):
        parse_conllu(text)


def test_multiword_range_rejected():
    text = "1-2\tdelle\t_\t_\t_\t_\t_\t_\t_\t_\n1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n\n"
    with pytest.raises(UnsupportedToken) as exc:
        parse_conllu(text)
    assert exc.value.line_no == 1


def test_empty_node_rejected():
    text = "1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n1.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    with pytest.raises(UnsupportedToken):
        parse_conllu(text)


def test_drop_unsupported_equals_parsing_without_those_lines():
    text = (
        "# sent_id = s1\n"
        "1-2\tdelle\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n"
        "2\tille\tille\tDET\t_\t_\t_\t_\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
        "0.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tuenit\tuenio\tVERB\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    supported = "".join(line for line in text.splitlines(keepends=True)
                        if not re.match(r"\d+[-.]\d+\t", line))
    d = parse_conllu(text, drop_unsupported=True)
    assert d == parse_conllu(supported)
    assert [len(s.tokens) for s in d.sentences] == [2, 1]


def test_invalid_upos_rejected():
    text = "1\tarma\tarma\tNN\t_\t_\t_\t_\t_\t_\n\n"
    with pytest.raises(InvalidUpos) as exc:
        parse_conllu(text)
    assert exc.value.upos == "NN"


def test_non_consecutive_ids():
    text = (
        "1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "3\tb\tb\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    with pytest.raises(NonConsecutiveIds) as exc:
        parse_conllu(text)
    assert exc.value.sent_index == 0


def test_orphan_comments_rejected():
    with pytest.raises(MalformedLine):
        parse_conllu("# stray comment\n\n")
    with pytest.raises(MalformedLine,
                       match="^line 1: comment lines not followed by a sentence$"):
        parse_conllu("# sent_id = a\n# text = x\n\n1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n\n")


def test_roundtrip_minimal_byte_exact():
    assert serialize(parse_conllu(MINIMAL)) == MINIMAL


def test_comments_emitted_before_tokens_in_order():
    text = (
        "# sent_id = a-1\n"
        "# text = arma\n"
        "1\tarma\tarma\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    d = parse_conllu(text)
    assert d.sentences[0].comments == ("# sent_id = a-1", "# text = arma")
    assert serialize(d) == text


def test_empty_feats_serialize_as_underscore():
    d = doc(sent(tok(1, "arma", "arma", "NOUN")))
    assert "\t_\t" in serialize(d)
    assert parse_conllu(serialize(d)) == d


def test_crlf_input_accepted_lf_output():
    crlf = MINIMAL.replace("\n", "\r\n")
    d = parse_conllu(crlf)
    assert serialize(d) == MINIMAL


def test_shipped_fixtures_roundtrip_byte_exact():
    paths = sorted(glob.glob(os.path.join(ROUNDTRIP_DIR, "*.conllu")))
    assert len(paths) >= 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize(parse_conllu(text)) == text, path


def test_parse_serialize_parse_idempotent_on_non_canonical():
    text = "1\tarma\tarma\tNOUN\t_\tNumber=Sing|Case=Nom\t_\t_\t_\t_\n\n\n\n"
    once = parse_conllu(text)
    again = parse_conllu(serialize(once))
    assert once == again
    assert serialize(once) == serialize(again)


def test_opaque_columns_roundtrip_verbatim():
    text = "1\tregina\tregina\tNOUN\tA1b\tCase=Nom\t2\tnsubj\t2:nsubj\tSpaceAfter=No\n\n"
    d = parse_conllu(text)
    assert d.sentences[0].tokens[0].extra_cols == ("A1b", "2", "nsubj", "2:nsubj")
    assert d.sentences[0].tokens[0].misc == "SpaceAfter=No"
    assert serialize(d) == text


# One column of a token line: no tab, no line break, never empty.
_COLUMN = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                  min_size=1, max_size=6)
_SENT_ID = _COLUMN.map(str.strip).filter(bool)


@st.composite
def canonical_documents(draw):
    """Documents already in canonical form: ids from 1, sorted unique FEATS
    keys, and optional sent_id and text comment lines."""
    sentences = []
    for _ in range(draw(st.integers(0, 4))):
        tokens = []
        for i in range(draw(st.integers(1, 5))):
            keys = draw(st.lists(_COLUMN.filter(lambda k: "=" not in k and "|" not in k),
                                 max_size=3, unique=True))
            ufeats = tuple(sorted((k, draw(_COLUMN.filter(lambda v: "|" not in v)))
                                  for k in keys))
            tokens.append(Token(i + 1, draw(_COLUMN), draw(_COLUMN),
                                draw(st.sampled_from(sorted(UPOS_TAGS))), ufeats,
                                draw(_COLUMN), tuple(draw(_COLUMN) for _ in range(4))))
        sent_id = draw(st.none() | _SENT_ID)
        comments = () if sent_id is None else (f"# sent_id = {sent_id}",)
        if draw(st.booleans()):
            comments += (f"# text = {draw(_COLUMN)}",)
        sentences.append(Sentence(tuple(tokens), comments))
    return Document(tuple(sentences), "random")


def reference_feats_string(ufeats):
    """Token.feats_string before it went through _feats_text."""
    if not ufeats:
        return "_"
    return "|".join(f"{k}={v}" for k, v in ufeats)


@settings(max_examples=200, deadline=None)
@given(ufeats=st.lists(st.tuples(st.text(max_size=4), st.text(max_size=4)),
                       max_size=4).map(tuple))
@example(ufeats=())
@example(ufeats=(("", ""),))
def test_feats_string_matches_reference(ufeats):
    token = Token(1, "x", ufeats=ufeats)
    assert token.feats_string() == reference_feats_string(ufeats)
    assert token.feats_string() == reference_feats_string(ufeats)  # memoized


@settings(max_examples=200, deadline=None)
@given(d=canonical_documents())
def test_random_documents_roundtrip(d):
    text = serialize(d)
    parsed = parse_conllu(text)
    assert parsed.sentences == d.sentences
    assert serialize(parsed) == text


# Reference implementation: the parser before the FEATS table and the
# isdecimal() id test.  parse_conllu must give the same Document, or raise
# the same error type with the same message.

def reference_parse_conllu(text, source_name="<string>", drop_unsupported=False):
    if text.startswith("\ufeff"):
        text = text[1:]
    sentences, comments, tokens = [], [], []
    first_comment_line = 0

    def flush():
        nonlocal comments, tokens
        if not tokens:
            if comments:
                raise MalformedLine(first_comment_line, "comment lines not followed by a sentence")
            return
        sent_index = len(sentences)
        for pos, token in enumerate(tokens):
            if token.id != pos + 1:
                raise NonConsecutiveIds(sent_index)
        sentences.append(Sentence(tuple(tokens), tuple(comments)))
        comments, tokens = [], []

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_no, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line == "":
            flush()
            continue
        if line.startswith("#"):
            if not tokens and not comments:
                first_comment_line = line_no
            comments.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise MalformedLine(line_no, f"expected 10 tab-separated fields, got {len(fields)}")
        if any(f == "" for f in fields):
            raise MalformedLine(line_no, "empty column (use '_' for absent values)")
        raw_id = fields[0]
        if re.match(r"^\d+-\d+$", raw_id) or re.match(r"^\d+\.\d+$", raw_id):
            if drop_unsupported:
                continue
            raise UnsupportedToken(line_no, raw_id)
        if not re.match(r"^\d+$", raw_id):
            raise MalformedLine(line_no, f"token id {raw_id!r} is not a positive integer")
        if fields[3] not in UPOS_TAGS:
            raise InvalidUpos(line_no, fields[3])
        tokens.append(Token(
            id=int(raw_id), form=fields[1], lemma=fields[2], upos=fields[3],
            ufeats=feats_from_string(fields[5], line_no), misc=fields[9],
            extra_cols=(fields[4], fields[6], fields[7], fields[8]),
        ))
    flush()
    return Document(tuple(sentences), source_name)


def parse_outcome(parse, text, drop_unsupported):
    """The parsed document with its name, or the error's type and message."""
    try:
        d = parse(text, "gen", drop_unsupported)
    except MedlatinError as exc:
        return type(exc), str(exc)
    return d, d.source_name


# Ids that replace a token's position: "" is an empty column; "١٢" is
# decimal (Unicode Nd) and int() reads it as 12; "²" is a digit but not
# decimal; "3-4" and "3.1" are unsupported.
ODD_IDS = ["", "0", "١", "١٢", "٣", "²", "3-4", "3.1", "1a", "01"]
GOOD_FEATS = ["_", "Case=Nom", "Number=Sing|Case=Nom", "B=2|A=1"]
BAD_FEATS = ["Case=Nom|Case=Acc", "Case", "=Nom", "Case="]
# Each token line gets at most one fault; most get none.
FAULTS = [None] * 6 + ["id", "empty column", "field count", "upos"]


@st.composite
def conllu_texts(draw):
    """CoNLL-U text with sentences of consecutive ids, some lines faulty."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        lines += draw(st.lists(st.sampled_from(["# sent_id = s1", "# note"]), max_size=2))
        for position in range(1, draw(st.integers(1, 4)) + 1):
            fields = [str(position), "forma", "lemma", "NOUN", "_",
                      draw(st.sampled_from(GOOD_FEATS * 3 + BAD_FEATS)), "_", "_", "_", "_"]
            fault = draw(st.sampled_from(FAULTS))
            if fault == "id":
                fields[0] = draw(st.sampled_from(ODD_IDS))
            elif fault == "empty column":
                fields[draw(st.integers(0, 9))] = ""
            elif fault == "field count":
                fields = (fields + ["_"])[:draw(st.sampled_from([1, 9, 11]))]
            elif fault == "upos":
                fields[3] = "NN"
            lines.append("\t".join(fields))
        lines.append("")
    lines += draw(st.lists(st.sampled_from(["# trailing comment", ""]), max_size=1))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=400, deadline=None)
@given(text=conllu_texts(), drop_unsupported=st.booleans())
@example(text="1\ta\ta\tNOUN\t_\tB=2|A=1\t_\t_\t_\t_\n"
              "2\tb\tb\tNOUN\t_\tB=2|A=1\t_\t_\t_\t_\n\n", drop_unsupported=False)
@example(text="1-2\tdelle\t_\t_\t_\t_\t_\t_\t_\t_\n1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n"
              "1.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n\n", drop_unsupported=True)
@example(text="# sent_id = a\n# text = x\n\n1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
         drop_unsupported=False)
@example(text="1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
              "1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
         drop_unsupported=False)
def test_parse_conllu_matches_reference(text, drop_unsupported):
    assert (parse_outcome(parse_conllu, text, drop_unsupported)
            == parse_outcome(reference_parse_conllu, text, drop_unsupported))


def test_identical_token_lines_share_one_token():
    line = "1\tarma\tarma\tNOUN\t_\tCase=Nom\t_\t_\t_\t_\n"
    other = "1\tarma\tarmum\tNOUN\t_\tCase=Nom\t_\t_\t_\t_\n"
    d = parse_conllu(line + "\n" + line.replace("\n", "\r\n") + "\n" + other + "\n")
    first, again, differs = (s.tokens[0] for s in d.sentences)
    assert again is first
    assert differs is not first and differs.lemma == "armum"
    assert d == reference_parse_conllu(line + "\n" + line + "\n" + other + "\n")


@settings(max_examples=200, deadline=None)
@given(other=conllu_texts(), text=conllu_texts(), drop_other=st.booleans(),
       drop_unsupported=st.booleans())
def test_parse_after_other_texts_matches_reference(other, text, drop_other, drop_unsupported):
    """The document memo outlives a parse: texts held from another parse,
    or the text itself, change no document, error or line number."""
    parse_outcome(parse_conllu, other, drop_other)
    expected = parse_outcome(reference_parse_conllu, text, drop_unsupported)
    assert parse_outcome(parse_conllu, text, drop_unsupported) == expected
    assert parse_outcome(parse_conllu, text, drop_unsupported) == expected


def test_error_after_cached_lines_names_its_own_line():
    good = "1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n2\tb\tb\tNOUN\t_\t_\t_\t_\t_\t_\n"
    parse_conllu("# a\n# b\n# c\n" + good + "\n")  # the memo holds this text, not its lines
    with pytest.raises(InvalidUpos) as exc:
        parse_conllu(good + "3\tc\tc\tNN\t_\t_\t_\t_\t_\t_\n\n")
    assert exc.value.line_no == 3
    with pytest.raises(NonConsecutiveIds) as exc:
        parse_conllu(good + "\n" + good + good + "\n")
    assert exc.value.sent_index == 1


class BoundedMemo(dict):
    """A document memo that fails the test as soon as it holds more tokens
    than TOKEN_MEMO_SIZE."""

    def __setitem__(self, key, sentences):
        super().__setitem__(key, sentences)
        held = sum(len(s.tokens) for value in self.values() for s in value)
        assert held <= conllu.TOKEN_MEMO_SIZE


def empty_memo(patch, size):
    """Give parse_conllu an empty BoundedMemo of `size` tokens."""
    patch.setattr(conllu, "TOKEN_MEMO_SIZE", size)
    patch.setattr(conllu, "_DOCUMENTS", BoundedMemo())
    patch.setattr(conllu, "_memo_tokens", 0)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(st.tuples(conllu_texts(), st.booleans(), st.booleans()),
                      min_size=1, max_size=4),
       size=st.integers(0, 12))
def test_bounded_memo_matches_reference(texts, size):
    """Texts parsed twice, with and without a BOM, under a small bound:
    every outcome is the reference's, and the memo holds only clean texts."""
    with pytest.MonkeyPatch.context() as patch:
        empty_memo(patch, size)
        for text, bom, drop_unsupported in texts + texts:
            text = "\ufeff" * bom + text
            assert (parse_outcome(parse_conllu, text, drop_unsupported)
                    == parse_outcome(reference_parse_conllu, text, drop_unsupported))
        for (text, drop_unsupported), sentences in conllu._DOCUMENTS.items():
            assert reference_parse_conllu(text, "", drop_unsupported).sentences == sentences


def test_full_memo_keeps_its_first_documents():
    def text(n, form):
        return "".join(f"{i}\t{form}\t{form}\tNOUN\t_\t_\t_\t_\t_\t_\n"
                       for i in range(1, n + 1)) + "\n"
    first, large, fits, late = text(3, "a"), text(3, "b"), text(2, "c"), text(1, "d")
    with pytest.MonkeyPatch.context() as patch:
        empty_memo(patch, 5)
        docs = {t: parse_conllu(t) for t in (first, large, fits, late)}
        assert list(conllu._DOCUMENTS) == [(first, False), (fits, False)]
        assert conllu._memo_tokens == 5
        for t, d in docs.items():
            again = parse_conllu(t, source_name="again")
            assert again == d and again.source_name == "again"
            assert (again.sentences is d.sentences) == (t in (first, fits))
            assert (parse_outcome(parse_conllu, t, False)
                    == parse_outcome(reference_parse_conllu, t, False))


def test_memo_holds_no_error_and_keys_on_drop_unsupported():
    ranged = "1-2\tdelle\t_\t_\t_\t_\t_\t_\t_\t_\n1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n\n"
    bad = MINIMAL + "1\ta\ta\tNN\t_\t_\t_\t_\t_\t_\n\n"
    with pytest.MonkeyPatch.context() as patch:
        empty_memo(patch, 100)
        for _ in range(2):
            with pytest.raises(InvalidUpos) as exc:
                parse_conllu(bad)
            assert exc.value.line_no == 4
            with pytest.raises(UnsupportedToken) as exc:
                parse_conllu(ranged)
            assert exc.value.line_no == 1
            dropped = parse_conllu(ranged, drop_unsupported=True)
            assert dropped == reference_parse_conllu(ranged, drop_unsupported=True)
        assert list(conllu._DOCUMENTS) == [(ranged, True)]


def test_two_parses_of_a_file_share_its_tokens(tmp_path):
    path = os.path.join(ROUNDTRIP_DIR, "rt_annals_1.conllu")
    text = pathlib.Path(path).read_text(encoding="utf-8")
    bom = tmp_path / "bom.conllu"
    bom.write_text("\ufeff" + text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        empty_memo(patch, conllu.TOKEN_MEMO_SIZE)
        first, again, with_bom = read_conllu(path), read_conllu(path), read_conllu(str(bom))
    assert first == again == with_bom and first.token_count() > 0
    assert again.sentences is first.sentences and with_bom.sentences is first.sentences
    assert (first.source_name, with_bom.source_name) == (path, str(bom))
    assert first == reference_parse_conllu(text)


def test_repeated_bad_feats_error_names_its_first_line():
    text = ("1\ta\ta\tNOUN\t_\tCase=Nom\t_\t_\t_\t_\n"
            "2\tb\tb\tNOUN\t_\tCase\t_\t_\t_\t_\n"
            "3\tc\tc\tNOUN\t_\tCase\t_\t_\t_\t_\n\n")
    with pytest.raises(MalformedLine) as exc:
        parse_conllu(text)
    assert exc.value.line_no == 2
    assert (parse_outcome(parse_conllu, text, False)
            == parse_outcome(reference_parse_conllu, text, False))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_conllu_reads_like_a_text_mode_open(tmp_path, newline):
    path = tmp_path / "x.conllu"
    path.write_bytes(("\ufeff" + MINIMAL + MINIMAL).replace("\n", newline).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = parse_conllu(fh.read(), source_name=str(path))
    got = read_conllu(str(path))
    assert got == expected and got.source_name == str(path)


@pytest.mark.parametrize("content, message", [
    (MINIMAL.encode("utf-8") + b"1\ta\xff\n", "line 4: not UTF-8"),
    (b"\xff" + MINIMAL.encode("utf-8"), "line 1: not UTF-8"),
    (MINIMAL.encode("utf-8") + b"1\tbad\n", "line 4: expected 10 tab-separated fields"),
], ids=["not-utf8", "not-utf8-first-byte", "malformed-line"])
def test_read_conllu_errors_name_path_and_line(tmp_path, content, message):
    path = tmp_path / "x.conllu"
    path.write_bytes(content)
    with pytest.raises(MedlatinError, match=f"^{re.escape(str(path))}: {message}"):
        read_conllu(str(path))


def test_read_conllu_missing_file_names_path(tmp_path):
    path = str(tmp_path / "absent.conllu")
    with pytest.raises(MedlatinError, match=f"^{re.escape(path)}: cannot read"):
        read_conllu(path)


def test_relabel_writes_each_label_and_keeps_name():
    gold = Document((sent(tok(1, "Roma", "Roma", "PROPN"), tok(2, "est", "sum", "AUX")),
                     sent(tok(1, "uale", "ualeo", "VERB"), comments=("# sent_id = b",))),
                    "gold.conllu")
    out = relabel(gold, "upos", iter([["NOUN", "VERB"], ["INTJ"]]))
    assert [[t.upos for t in s.tokens] for s in out.sentences] == [["NOUN", "VERB"], ["INTJ"]]
    assert out.sentences[1].comments == ("# sent_id = b",)
    assert out.source_name == gold.source_name
    lemmas = relabel(gold, "lemma", [["roma", "sum"], ["ualeo"]])
    assert lemmas.sentences[0].tokens[0].lemma == "roma"
    with pytest.raises(ValueError, match="is not a UPOS tag"):
        relabel(gold, "upos", [["BOGUS", "VERB"], ["INTJ"]])


# Reference implementation: Task.write and relabel before a token that
# already holds its label's value was kept as it is.

def reference_write(task, tok, label):
    return replace(tok, **{task.name: task.parse(label)})


def reference_relabel(d, task, labels):
    def write(tok, label):
        return reference_write(TASKS[task], tok, label)
    return Document(tuple(Sentence(tuple(map(write, s.tokens, sentence_labels)), s.comments)
                          for s, sentence_labels in zip(d.sentences, labels)),
                    d.source_name)


OTHER_LABELS = {"upos": ["NOUN", "VERB", "X", "_"],
                "ufeats": ["_", "Case=Nom", "Case=Nom|Number=Sing"],
                "lemma": ["_", "arma", "Arma"]}
INVALID_LABELS = {"upos": ["NN", "noun", ""],
                  "ufeats": ["Number=Sing|Case=Nom", "Case", "Case=Nom|Case=Acc", ""],
                  "lemma": []}


@st.composite
def relabellings(draw):
    """A document, a task and one label per token: the token's own value,
    its lemma in another case, another valid label, or an invalid one."""
    d = draw(canonical_documents())
    task = draw(st.sampled_from(sorted(TASKS)))
    labels = []
    for sentence in d.sentences:
        sentence_labels = []
        for token in sentence.tokens:
            own = token.feats_string() if task == "ufeats" else getattr(token, task)
            kind = draw(st.sampled_from(["own"] * 4 + ["case", "other", "invalid"]))
            if kind == "case" and task == "lemma":
                label = draw(st.sampled_from([own.upper(), own.lower(), own.swapcase()]))
            elif kind == "invalid" and INVALID_LABELS[task]:
                label = draw(st.sampled_from(INVALID_LABELS[task]))
            elif kind == "own":
                label = own
            else:
                label = draw(st.sampled_from(OTHER_LABELS[task]))
            sentence_labels.append(label)
        labels.append(sentence_labels)
    return d, task, labels


def relabel_outcome(relabel_fn, d, task, labels):
    """The relabelled document with its name, or the error's type and message."""
    try:
        out = relabel_fn(d, task, iter([list(s) for s in labels]))
    except ValueError as exc:
        return type(exc), str(exc)
    return out, out.source_name


@settings(max_examples=300, deadline=None)
@given(case=relabellings())
def test_relabel_matches_reference_and_keeps_unchanged_tokens(case):
    d, task, labels = case
    got = relabel_outcome(relabel, d, task, labels)
    assert got == relabel_outcome(reference_relabel, d, task, labels)
    if isinstance(got[0], Document):
        for before, after, sentence_labels in zip(d.sentences, got[0].sentences, labels):
            for old, new, label in zip(before.tokens, after.tokens, sentence_labels):
                unchanged = getattr(old, task) == TASKS[task].parse(label)
                assert (new is old) == unchanged
