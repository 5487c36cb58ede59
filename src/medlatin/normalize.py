"""Orthographic rewrite rules for Medieval Latin gold conventions.

The gold annotation conventions this engine encodes are the ones that
dominate lemma disagreements in medieval material: the bilabial is written
``u`` for both vowel and consonant (uideo, ciuitas), and the -ti-/-ci-
group is standardized to ``-ti-`` (gratia, laurentius).  Rules are
directional, predicted -> gold; no inverse property is claimed.

k/c alternation, h insertion or omission, and ae/oe diphthong restoration
are deliberately NOT shipped as blanket rules: those alternations are
word-specific (karitas:caritas but kalendae stays kalendae), so a blanket
rewrite would create new errors.  A ruleset file can still carry such a
rule, with an exception list of the words it must not touch.

Ruleset file format, one rule per line:

    rule_id TAB pattern TAB replacement TAB position TAB comma-separated-exceptions

position is one of initial, middle, final, anywhere.  Lines starting with
'#' and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import MedlatinError

POSITIONS = ("initial", "middle", "final", "anywhere")


class RulesetFormatError(MedlatinError):
    pass


@dataclass(frozen=True)
class RewriteRule:
    rule_id: str
    pattern: str
    replacement: str
    position: str = "anywhere"
    exceptions: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("rule pattern must be non-empty")
        if self.pattern == self.replacement:
            raise ValueError("rule pattern must differ from replacement")
        if self.position not in POSITIONS:
            raise ValueError(f"unknown position {self.position!r}")


@dataclass(frozen=True)
class Ruleset:
    rules: tuple[RewriteRule, ...]
    name: str = "<unnamed>"

    def __post_init__(self):
        ids = [r.rule_id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError("rule_ids must be unique within a ruleset")


def _apply_one(rule: RewriteRule, word: str) -> str:
    """Replace every non-overlapping occurrence of the pattern, leftmost
    first, that lies at the rule's position; replacements are never
    re-scanned by the same rule."""
    if word in rule.exceptions:
        return word
    pat, rep, position = rule.pattern, rule.replacement, rule.position
    if position == "anywhere":
        return word.replace(pat, rep)
    if position == "initial":
        return rep + word[len(pat):] if word.startswith(pat) else word
    if position == "final":
        return word[:-len(pat)] + rep if word.endswith(pat) else word
    if len(word) < 2:  # middle: neither the first nor the last character
        return word
    return word[0] + word[1:-1].replace(pat, rep) + word[-1]


def apply_rules(ruleset: Ruleset, word: str) -> str:
    """Apply rules in list order to a lowercase word; deterministic, single pass per rule."""
    for rule in ruleset.rules:
        word = _apply_one(rule, word)
    return word


def normalize_word(ruleset: Ruleset, word: str) -> str:
    """Casing-aware wrapper: rewrites on the lowercase form and restores an
    initial capital, so capitalized proper nouns stay capitalized.  A word
    no rule changes comes back as it was (III, SPQR, iPhone)."""
    lowered = word.lower()
    rewritten = apply_rules(ruleset, lowered)
    if rewritten == lowered:
        return word
    if word[0].isupper() and rewritten:
        return rewritten[0].upper() + rewritten[1:]
    return rewritten


def default_gold_ruleset() -> Ruleset:
    """The bundled predicted->gold ruleset (loaded from packaged data).

    Contains v->u (anywhere, no exceptions) and ci->ti (middle, with an
    exception list of attested legitimate -ci- lemmas); nothing for k/c, h,
    or diphthongs, per the module docstring.
    """
    text = resources.files("medlatin.data").joinpath("default_ruleset.tsv").read_text("utf-8")
    return parse_ruleset(text, name="default_gold")


def parse_ruleset(text: str, name: str = "<string>") -> Ruleset:
    rules = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == 4:
            fields.append("")  # empty exceptions field, trailing tab lost in transit
        if len(fields) != 5:
            raise RulesetFormatError(
                f"{name}: line {line_no}: expected 5 tab-separated fields, got {len(fields)}")
        rule_id, pattern, replacement, position, raw_exceptions = fields
        exceptions = frozenset(w for w in raw_exceptions.split(",") if w)
        try:
            if any(rule.rule_id == rule_id for rule in rules):
                raise ValueError(f"rule_id {rule_id!r} is already used by an earlier rule")
            rules.append(RewriteRule(rule_id, pattern, replacement, position, exceptions))
        except ValueError as exc:
            raise RulesetFormatError(f"{name}: line {line_no}: {exc}") from exc
    return Ruleset(tuple(rules), name)
