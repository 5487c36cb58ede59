import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from medlatin import normalize as normalize_mod
from medlatin.cli import run_cli
from medlatin.conllu import TASKS, Document, Sentence, Token, serialize
from medlatin.normalize import (POSITIONS, RewriteRule, Ruleset,
                                RulesetFormatError, apply_rules,
                                default_gold_ruleset, normalize_word,
                                parse_ruleset)


def rs(*rules):
    return Ruleset(tuple(rules), "test")


def rule_named(ruleset, rule_id):
    (rule,) = [r for r in ruleset.rules if r.rule_id == rule_id]
    return rule


def test_default_ruleset_video_to_uideo():
    assert apply_rules(default_gold_ruleset(), "video") == "uideo"


def test_default_ruleset_gracia_to_gratia():
    assert apply_rules(default_gold_ruleset(), "gracia") == "gratia"


def test_default_ruleset_more_examples():
    ruleset = default_gold_ruleset()
    assert apply_rules(ruleset, "civitas") == "ciuitas"
    assert apply_rules(ruleset, "vivo") == "uiuo"
    assert apply_rules(ruleset, "laurencius") == "laurentius"
    assert apply_rules(ruleset, "preciosus") == "pretiosus"


def test_default_ruleset_contents():
    ruleset = default_gold_ruleset()
    v_rule = rule_named(ruleset, "u_for_v")
    assert (v_rule.pattern, v_rule.replacement, v_rule.position) == ("v", "u", "anywhere")
    assert v_rule.exceptions == frozenset()
    # no blanket k->c, no h handling, no diphthong restoration
    patterns = {(r.pattern, r.replacement) for r in ruleset.rules}
    assert ("k", "c") not in patterns
    assert ("c", "k") not in patterns
    assert ("e", "ae") not in patterns
    assert not any("h" in (r.pattern, r.replacement) for r in ruleset.rules)


def test_exception_words_are_fixed_points():
    ruleset = default_gold_ruleset()
    ci_rule = rule_named(ruleset, "ti_for_ci")
    for word in sorted(ci_rule.exceptions):
        assert apply_rules(rs(ci_rule), word) == word


def test_empty_ruleset_is_identity():
    empty = Ruleset((), "empty")
    for word in ("uideo", "gratia", "kinga"):
        assert apply_rules(empty, word) == word


def test_position_initial():
    rule = RewriteRule("r", "ab", "X", "initial")
    assert apply_rules(rs(rule), "abab") == "Xab"


def test_position_final():
    rule = RewriteRule("r", "ab", "X", "final")
    assert apply_rules(rs(rule), "abab") == "abX"


def test_position_middle():
    rule = RewriteRule("r", "ab", "X", "middle")
    assert apply_rules(rs(rule), "ababab") == "abXab"
    assert apply_rules(rs(rule), "abab") == "abab"  # both occurrences touch an edge


def test_single_pass_never_rescans_output():
    rule = RewriteRule("r", "a", "aa", "anywhere")
    assert apply_rules(rs(rule), "aaa") == "aaaaaa"  # terminates, one pass


def test_rules_apply_in_list_order():
    first = RewriteRule("one", "b", "c", "anywhere")
    second = RewriteRule("two", "c", "d", "anywhere")
    assert apply_rules(rs(first, second), "b") == "d"
    assert apply_rules(rs(second, first), "b") == "c"


def test_normalize_word_restores_initial_capital():
    assert normalize_word(default_gold_ruleset(), "Video") == "Uideo"
    assert normalize_word(default_gold_ruleset(), "gracia") == "gratia"


def test_normalize_word_keeps_the_case_of_words_no_rule_changes():
    for word in ("III", "SPQR", "iPhone"):
        assert normalize_word(default_gold_ruleset(), word) == word


def test_rule_field_validation():
    with pytest.raises(ValueError):
        RewriteRule("r", "", "x", "anywhere")
    with pytest.raises(ValueError):
        RewriteRule("r", "x", "x", "anywhere")
    with pytest.raises(ValueError):
        RewriteRule("r", "x", "y", "someplace")
    with pytest.raises(ValueError):
        Ruleset((RewriteRule("same", "a", "b"), RewriteRule("same", "c", "d")), "dup")


def test_ruleset_file_roundtrip():
    text = ("# comment\n"
            "v2u\tv\tu\tanywhere\t\n"
            "\n"
            "ci2ti\tci\tti\tmiddle\tfacio,socius\r\n"
            "h2\th\t\tinitial\n")
    parsed = parse_ruleset(text, name="roundtrip")
    assert parsed == Ruleset((
        RewriteRule("v2u", "v", "u", "anywhere"),
        RewriteRule("ci2ti", "ci", "ti", "middle", frozenset({"socius", "facio"})),
        RewriteRule("h2", "h", "", "initial"),
    ), "roundtrip")


def test_ruleset_file_rejects_wrong_field_count():
    with pytest.raises(RulesetFormatError):
        parse_ruleset("only\ttwo\n")


def test_ruleset_file_rejects_repeated_rule_id_naming_the_line():
    with pytest.raises(RulesetFormatError, match="^rules.tsv: line 2: rule_id 'r1' is already "):
        parse_ruleset("r1\tv\tu\tanywhere\t\nr1\tci\tti\tmiddle\t\n", name="rules.tsv")


def reference_position_ok(position, start, end, length):
    if position == "anywhere":
        return True
    if position == "initial":
        return start == 0
    if position == "final":
        return end == length
    return start > 0 and end < length  # middle


def reference_apply_one(rule, word):
    """The character-at-a-time rule engine, kept as the reference."""
    if word in rule.exceptions:
        return word
    pat = rule.pattern
    n = len(word)
    out = []
    i = 0
    while i < n:
        if word.startswith(pat, i) and reference_position_ok(rule.position, i, i + len(pat), n):
            out.append(rule.replacement)
            i += len(pat)
        else:
            out.append(word[i])
            i += 1
    return "".join(out)


WORDS = st.text("ab", max_size=8)


@st.composite
def rewrite_rules(draw):
    pattern = draw(st.text("ab", min_size=1, max_size=3))
    replacement = draw(st.text("ab", max_size=3).filter(lambda r: r != pattern))
    return (pattern, replacement, draw(st.sampled_from(POSITIONS)),
            frozenset(draw(st.sets(WORDS, max_size=3))))


def test_apply_rules_matches_reference_engine_exhaustively():
    texts = [""] + ["".join(t) for n in range(1, 8) for t in itertools.product("ab", repeat=n)]
    for pattern in texts[1:7]:
        for replacement in texts[:7]:
            for position in POSITIONS:
                if replacement == pattern:
                    continue
                rule = RewriteRule("r", pattern, replacement, position)
                for word in texts:
                    assert apply_rules(rs(rule), word) == reference_apply_one(rule, word)


@settings(max_examples=300, deadline=None)
@given(st.lists(rewrite_rules(), min_size=1, max_size=3), WORDS)
@example([("ab", "b", "middle", frozenset())], "aabab")
@example([("a", "", "final", frozenset({"aa"}))], "aa")
def test_apply_rules_matches_reference_engine(specs, word):
    rules = tuple(RewriteRule(f"r{i}", *spec) for i, spec in enumerate(specs))
    expected = word
    for rule in rules:
        expected = reference_apply_one(rule, expected)
    assert apply_rules(rs(*rules), word) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text("civtuao", max_size=10),
                 st.sampled_from(sorted(rule_named(default_gold_ruleset(), "ti_for_ci").exceptions))))
def test_default_ruleset_matches_reference_engine(word):
    ruleset = default_gold_ruleset()
    expected = word
    for rule in ruleset.rules:
        expected = reference_apply_one(rule, expected)
    assert apply_rules(ruleset, word) == expected


def reference_normalize(ruleset, doc):
    """cmd_normalize's loop as it was before conllu.relabel, kept verbatim as
    the reference."""
    new_sentences = []
    for sentence in doc.sentences:
        new_tokens = tuple(
            tok if tok.lemma == "_" else TASKS["lemma"].write(
                tok, normalize_mod.normalize_word(ruleset, tok.lemma))
            for tok in sentence.tokens
        )
        new_sentences.append(dataclasses.replace(sentence, tokens=new_tokens))
    return Document(tuple(new_sentences), doc.source_name)


_LEMMAS = st.one_of(
    st.sampled_from(["_", "Video", "gracia", "Laurencius", "civitas", "Vivo", "uideo"]),
    st.text(alphabet="_aAcCeiItTuUvV", min_size=1, max_size=8),
)


@st.composite
def lemma_documents(draw):
    sentences = []
    for s in range(draw(st.integers(0, 4))):
        lemmas = draw(st.lists(_LEMMAS, min_size=1, max_size=6))
        tokens = tuple(Token(i + 1, f"w{i}", lemma, draw(st.sampled_from(["NOUN", "PROPN"])))
                       for i, lemma in enumerate(lemmas))
        comments = (f"# sent_id = s{s}",) if draw(st.booleans()) else ()
        sentences.append(Sentence(tokens, comments))
    return Document(tuple(sentences), "generated")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=lemma_documents())
def test_normalize_cli_matches_reference_loop(tmp_path, capsys, doc):
    src = tmp_path / "in.conllu"
    src.write_text(serialize(doc), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["normalize", "--in", str(src)]) == 0
    assert capsys.readouterr().out == serialize(reference_normalize(default_gold_ruleset(), doc))
