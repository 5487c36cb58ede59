"""Dataset catalog, corpus statistics and cross-validation splits.

A registry lists datasets of two kinds: ``ud_treebank`` (standard UD Latin
treebanks such as PROIEL or LLCT) and ``efontes_genre`` (Medieval Latin
genre subcorpora such as Annals or Proceedings).  Each entry may carry
declared statistics; the toolkit never trusts those over recomputed ones,
and validate_stats exists precisely to flag declared triples whose average
does not match tokens/sentences.

Registry config file format (INI, one section per dataset, order preserved):

    [dataset:Annals]
    kind = efontes_genre
    paths = annals/*.conllu, extra/annals_b.conllu
    tokens = 895
    sentences = 33
    avg = 27.12

``paths`` holds comma-separated globs resolved relative to the config file;
it may be omitted for declaration-only entries.  ``tokens``/``sentences``/
``avg`` are the optional declared statistics.
"""

from __future__ import annotations

import configparser
import glob as globmod
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal, InvalidOperation
from importlib import resources

from .conllu import Document, Sentence, concat_documents, read_conllu
from .errors import MedlatinError, read_text

UD_TREEBANK = "ud_treebank"
EFONTES_GENRE = "efontes_genre"

_TWO_DP = Decimal("0.01")


class UnknownDataset(MedlatinError):
    def __init__(self, name: str):
        super().__init__(f"no dataset named {name!r} in the registry")


class TooFewDatasets(MedlatinError):
    pass


class DivisionByZero(MedlatinError):
    pass


class RegistryConfigError(MedlatinError):
    pass


class OutOfRange(MedlatinError, ValueError):
    """A numeric argument outside its range; a ValueError too, as it was."""


@dataclass(frozen=True)
class CorpusStats:
    tokens: int
    sentences: int
    avg_tokens_per_sentence: Decimal


@dataclass(frozen=True)
class StatsVerdict:
    consistent: bool
    expected_avg: Decimal


@dataclass(frozen=True)
class DatasetDescriptor:
    name: str
    kind: str
    paths: tuple[str, ...] = ()
    declared_stats: CorpusStats | None = None


@dataclass(frozen=True)
class SplitPlan:
    test_dataset: str
    train_datasets: tuple[str, ...]


class Registry:
    """Immutable, ordered collection of dataset descriptors."""

    def __init__(self, datasets: list[DatasetDescriptor]):
        seen: dict[str, str] = {}  # lowercased name -> name; run ids lowercase names
        for d in datasets:
            if d.name.lower() in seen:
                raise RegistryConfigError(f"dataset {d.name!r} clashes with "
                                          f"{seen[d.name.lower()]!r} (names must differ in "
                                          "more than case)")
            seen[d.name.lower()] = d.name
        self._datasets = tuple(datasets)
        self._by_name = {d.name: d for d in datasets}

    def __iter__(self):
        return iter(self._datasets)

    def get(self, name: str) -> DatasetDescriptor:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownDataset(name) from None

    def names(self, kind: str | None = None) -> list[str]:
        return [d.name for d in self._datasets if kind is None or d.kind == kind]

    def genres(self) -> list[str]:
        return self.names(EFONTES_GENRE)

    def ud_treebanks(self) -> list[str]:
        return self.names(UD_TREEBANK)


def half_up_2dp(numerator: int | Decimal, denominator: int | Decimal) -> Decimal:
    """numerator / denominator rounded half-up to 2 decimals; 0.00 for a zero denominator."""
    if denominator == 0:
        return Decimal("0.00")
    return (Decimal(numerator) / Decimal(denominator)).quantize(_TWO_DP, rounding=ROUND_HALF_UP)


def compute_stats(doc: Document) -> CorpusStats:
    """Token count, sentence count and 2-decimal average tokens per sentence."""
    tokens = doc.token_count()
    sentences = len(doc.sentences)
    return CorpusStats(tokens, sentences, half_up_2dp(tokens, sentences))


def _positive_tolerance(tolerance: Decimal | str | float) -> Decimal:
    tol = Decimal(str(tolerance))
    if tol <= 0:
        raise OutOfRange(f"tolerance must be positive, not {tolerance}")
    return tol


def validate_stats(declared: CorpusStats, tolerance: Decimal | str | float = "0.05") -> StatsVerdict:
    """Check a declared (tokens, sentences, avg) triple for internal consistency.

    The verdict reports the recomputed average either way; inconsistent means
    the declared average is more than ``tolerance`` away from tokens/sentences.
    """
    tol = _positive_tolerance(tolerance)
    if declared.sentences == 0:
        if declared.tokens > 0:
            raise DivisionByZero(
                f"declared {declared.tokens} tokens across 0 sentences")
        return StatsVerdict(abs(declared.avg_tokens_per_sentence) <= tol, Decimal("0.00"))
    exact = Decimal(declared.tokens) / Decimal(declared.sentences)
    consistent = abs(declared.avg_tokens_per_sentence - exact) <= tol
    return StatsVerdict(consistent, half_up_2dp(declared.tokens, declared.sentences))


def make_cv_splits(genres: list[str]) -> list[SplitPlan]:
    """Leave-one-subcorpus-out folds: each genre once as test, the rest as training."""
    if len(genres) < 2:
        raise TooFewDatasets(f"need at least 2 datasets for cross-validation, got {len(genres)}")
    return [SplitPlan(test, tuple(g for g in genres if g != test)) for test in genres]


def split_for_validation(sentences: tuple[Sentence, ...],
                         fraction: Decimal | str | float = "0.1"
                         ) -> tuple[tuple[Sentence, ...], tuple[Sentence, ...]]:
    """Deterministic validation carve: every k-th sentence, k = round(1/fraction).

    No seeds involved, so the same corpus always splits the same way.  k is
    clamped to >= 2 so the training portion can never end up empty.  k is
    worked out in Decimal, rounded half-even as round() rounds, so no
    fraction overflows a float; every k past len(sentences) carves nothing,
    so k stops there.
    """
    value = Decimal(str(fraction))
    if not (value.is_finite() and 0 < value < 1):
        raise OutOfRange(f"validation_fraction must lie in (0, 1), not {fraction}")
    inverse = Context(traps=[]).divide(1, value).to_integral_value(ROUND_HALF_EVEN)
    k = max(2, int(min(inverse, len(sentences) + 1)))
    train = tuple(s for i, s in enumerate(sentences) if (i + 1) % k != 0)
    val = tuple(s for i, s in enumerate(sentences) if (i + 1) % k == 0)
    return train, val


def load_dataset(registry: Registry, name: str, drop_unsupported: bool = False) -> Document:
    """Parse and concatenate the dataset's files in path order."""
    desc = registry.get(name)
    if not desc.paths:
        raise UnknownDataset(f"{name} (registered without paths)")
    return concat_documents([read_conllu(path, drop_unsupported) for path in desc.paths], name)


def load_registry(path: str) -> Registry:
    """Read a registry config file (format documented in the module docstring)."""
    text = read_text(path)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
        return _registry_from_parser(parser, os.path.dirname(os.path.abspath(path)), path)
    except configparser.Error as exc:
        raise RegistryConfigError(f"{path}: {exc}") from exc


def _registry_from_parser(parser: configparser.ConfigParser, base_dir: str,
                          origin: str) -> Registry:
    datasets = []
    for section in parser.sections():
        if not section.startswith("dataset:"):
            raise RegistryConfigError(f"{origin}: unexpected section [{section}]")
        name = section.split(":", 1)[1].strip()
        if not name:
            raise RegistryConfigError(f"{origin}: empty dataset name in [{section}]")
        kind = parser.get(section, "kind", fallback="").strip()
        if kind not in (UD_TREEBANK, EFONTES_GENRE):
            raise RegistryConfigError(
                f"{origin}: dataset {name!r} has unknown kind {kind!r}")
        paths: list[str] = []
        raw_paths = parser.get(section, "paths", fallback="").strip()
        if raw_paths:
            for pattern in (p.strip() for p in raw_paths.split(",")):
                if not pattern:
                    continue
                full = pattern if os.path.isabs(pattern) else os.path.join(base_dir, pattern)
                matches = sorted(globmod.glob(full))
                if not matches:
                    raise RegistryConfigError(
                        f"{origin}: dataset {name!r} pattern {pattern!r} matches no files")
                for m in matches:
                    if m not in paths:
                        paths.append(m)
        declared = None
        if parser.has_option(section, "tokens"):
            try:
                declared = CorpusStats(
                    tokens=parser.getint(section, "tokens"),
                    sentences=parser.getint(section, "sentences"),
                    avg_tokens_per_sentence=Decimal(parser.get(section, "avg")),
                )
            except (ValueError, InvalidOperation, configparser.NoOptionError) as exc:
                raise RegistryConfigError(
                    f"{origin}: dataset {name!r} has malformed declared stats: {exc}") from exc
            if declared.sentences == 0 and declared.tokens > 0:
                raise RegistryConfigError(f"{origin}: dataset {name!r} declares "
                                          f"{declared.tokens} tokens across 0 sentences")
        datasets.append(DatasetDescriptor(name, kind, tuple(paths), declared))
    try:
        return Registry(datasets)
    except RegistryConfigError as exc:
        exc.args = (f"{origin}: {exc}",)
        raise


def reference_registry() -> Registry:
    """The bundled declaration-only registry: five UD Latin treebanks and the
    five Medieval Latin genre subcorpora, with their declared statistics.

    Ships so that `corpus validate` has data out of the box; two of the ten
    declared rows (LLCT, Proceedings) are internally inconsistent at the
    default tolerance, which the validator is expected to flag.
    """
    parser = configparser.ConfigParser()
    text = resources.files("medlatin.data").joinpath("reference_registry.cfg").read_text("utf-8")
    parser.read_string(text)
    return _registry_from_parser(parser, os.getcwd(), "<bundled reference registry>")


def validate_registry(registry: Registry,
                      tolerance: Decimal | str | float = "0.05") -> dict[str, StatsVerdict]:
    """Run validate_stats over every dataset that declares statistics; the
    tolerance is range-checked even if none does."""
    tolerance = _positive_tolerance(tolerance)
    verdicts = {}
    for desc in registry:
        if desc.declared_stats is not None:
            verdicts[desc.name] = validate_stats(desc.declared_stats, tolerance)
    return verdicts
