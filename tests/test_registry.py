import re
from decimal import Decimal

import pytest

from medlatin.errors import MedlatinError
from medlatin.registry import (CorpusStats, DivisionByZero, OutOfRange, Registry,
                               RegistryConfigError, TooFewDatasets,
                               UnknownDataset, compute_stats, load_dataset,
                               load_registry, make_cv_splits,
                               reference_registry, split_for_validation,
                               validate_registry, validate_stats)

from conftest import MINI_REGISTRY, simple_doc


def _doc_with(sent_sizes):
    rows = [[("w%d" % i, "w%d" % i, "NOUN") for i in range(n)] for n in sent_sizes]
    return simple_doc(rows)


def test_compute_stats_annals_shape():
    # 33 sentences totalling 895 tokens: 33rd sentence absorbs the remainder
    sizes = [27] * 32 + [895 - 27 * 32]
    stats = compute_stats(_doc_with(sizes))
    assert stats == CorpusStats(895, 33, Decimal("27.12"))


def test_compute_stats_empty():
    stats = compute_stats(simple_doc([]))
    assert stats == CorpusStats(0, 0, Decimal("0.00"))


def test_compute_stats_single_sentence():
    stats = compute_stats(_doc_with([7]))
    assert stats == CorpusStats(7, 1, Decimal("7.00"))


def test_compute_stats_additive():
    a, b = _doc_with([3, 4]), _doc_with([5])
    both = _doc_with([3, 4, 5])
    sa, sb, sboth = compute_stats(a), compute_stats(b), compute_stats(both)
    assert sboth.tokens == sa.tokens + sb.tokens
    assert sboth.sentences == sa.sentences + sb.sentences


def test_validate_stats_biography_consistent():
    verdict = validate_stats(CorpusStats(8994, 298, Decimal("30.18")))
    assert verdict.consistent


def test_validate_stats_proceedings_inconsistent():
    verdict = validate_stats(CorpusStats(7189, 389, Decimal("16.48")))
    assert not verdict.consistent
    assert verdict.expected_avg == Decimal("18.48")


def test_validate_stats_llct_inconsistent():
    verdict = validate_stats(CorpusStats(390819, 7289, Decimal("26.64")))
    assert not verdict.consistent
    assert verdict.expected_avg == Decimal("53.62")


def test_validate_stats_science_near_miss():
    declared = CorpusStats(1990, 106, Decimal("18.74"))
    assert validate_stats(declared, "0.05").consistent
    assert not validate_stats(declared, "0.02").consistent
    assert validate_stats(declared, "0.02").expected_avg == Decimal("18.77")


def test_validate_stats_division_by_zero():
    with pytest.raises(DivisionByZero):
        validate_stats(CorpusStats(10, 0, Decimal("0.00")))


def test_reference_registry_flags():
    reg = reference_registry()
    assert len(reg.names()) == 10
    assert reg.ud_treebanks() == ["PROIEL", "Perseus", "LLCT", "ITTB", "UDante"]
    at_05 = {n for n, v in validate_registry(reg, "0.05").items() if not v.consistent}
    at_02 = {n for n, v in validate_registry(reg, "0.02").items() if not v.consistent}
    assert at_05 == {"LLCT", "Proceedings"}
    assert at_02 == {"LLCT", "Proceedings", "Science"}


def test_make_cv_splits_five_genres():
    genres = ["Annals", "Biography", "Normative", "Proceedings", "Science"]
    plans = make_cv_splits(genres)
    assert len(plans) == 5
    assert [p.test_dataset for p in plans] == genres
    for p in plans:
        assert p.test_dataset not in p.train_datasets
        assert set(p.train_datasets) | {p.test_dataset} == set(genres)


def test_make_cv_splits_two_genres():
    plans = make_cv_splits(["A", "B"])
    assert [(p.test_dataset, p.train_datasets) for p in plans] == [("A", ("B",)), ("B", ("A",))]


def test_make_cv_splits_too_few():
    with pytest.raises(TooFewDatasets):
        make_cv_splits(["A"])


def test_split_for_validation_every_tenth():
    doc = simple_doc([[(f"w{i}", f"w{i}", "NOUN")] for i in range(20)])
    train, val = split_for_validation(doc.sentences, "0.1")
    assert len(train) == 18 and len(val) == 2
    assert val == (doc.sentences[9], doc.sentences[19])
    assert train == tuple(s for i, s in enumerate(doc.sentences) if i not in (9, 19))


def test_split_for_validation_rounds_as_the_float_formula():
    """Differential: k worked out in Decimal equals max(2, round(1 / f)) on
    floats for every fraction with 1 to 4 decimals.  Over k + 1 sentences
    the one held-out sentence is the k-th, so the split shows k."""
    for digits in range(1, 5):
        for numerator in range(1, 10 ** digits):
            fraction = f"0.{numerator:0{digits}d}"
            k = max(2, round(1.0 / float(fraction)))
            assert split_for_validation(tuple(range(k + 1)), fraction) == (
                tuple(range(k - 1)) + (k,), (k - 1,)), fraction


@pytest.mark.parametrize("fraction", [5e-324, "5e-324", "1e-999999999999999999"],
                         ids=["float", "string", "past-the-float-range"])
def test_split_for_validation_tiny_fraction_keeps_every_sentence(fraction):
    sentences = simple_doc([[(f"w{i}", f"w{i}", "NOUN")] for i in range(20)]).sentences
    assert split_for_validation(sentences, fraction) == (sentences, ())


@pytest.mark.parametrize("fraction", ["0", "1", "-0.1", "nan", "Infinity"])
def test_split_for_validation_out_of_range(fraction):
    with pytest.raises(OutOfRange, match=f"must lie in \\(0, 1\\), not {fraction}"):
        split_for_validation((), fraction)


def test_mini_registry_loads_in_order():
    reg = load_registry(MINI_REGISTRY)
    assert reg.genres() == ["Annals", "Biography", "Normative", "Proceedings", "Science"]
    assert reg.ud_treebanks() == ["ud_alpha", "ud_beta"]
    doc = load_dataset(reg, "Annals")
    assert doc.source_name == "Annals"
    declared = reg.get("Annals").declared_stats
    assert compute_stats(doc) == declared
    verdicts = validate_registry(reg)
    assert all(v.consistent for v in verdicts.values())


def test_load_dataset_concatenates_in_path_order(tmp_path):
    f1 = tmp_path / "one.conllu"
    f2 = tmp_path / "two.conllu"
    f1.write_text("1\talpha\talpha\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    f2.write_text("1\tbeta\tbeta\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    cfg = tmp_path / "reg.cfg"
    cfg.write_text(
        "[dataset:Pair]\nkind = efontes_genre\npaths = one.conllu, two.conllu\n",
        encoding="utf-8")
    reg = load_registry(str(cfg))
    doc = load_dataset(reg, "Pair")
    forms = [t.form for s in doc.sentences for t in s.tokens]
    assert forms == ["alpha", "beta"]


def test_registry_values_are_read_literally(tmp_path):
    # With interpolation, "%" would have to be written "%%" and a lone one
    # would be a RegistryConfigError.
    for name, form in (("annals%.conllu", "alpha"), ("annals%%.conllu", "beta")):
        (tmp_path / name).write_text(f"1\t{form}\t{form}\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
                                     encoding="utf-8")
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[dataset:Annals]\nkind = efontes_genre\npaths = annals%.conllu\n",
                   encoding="utf-8")
    reg = load_registry(str(cfg))
    assert reg.get("Annals").paths == (str(tmp_path / "annals%.conllu"),)
    doc = load_dataset(reg, "Annals")
    assert [t.form for s in doc.sentences for t in s.tokens] == ["alpha"]


def test_load_dataset_unknown_name():
    reg = load_registry(MINI_REGISTRY)
    with pytest.raises(UnknownDataset):
        load_dataset(reg, "Poetry")


def test_load_dataset_parse_error_names_file(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tthree\tfields\n\n", encoding="utf-8")
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[dataset:Bad]\nkind = efontes_genre\npaths = bad.conllu\n",
                   encoding="utf-8")
    reg = load_registry(str(cfg))
    with pytest.raises(MedlatinError) as exc:
        load_dataset(reg, "Bad")
    assert "bad.conllu" in str(exc.value)


def test_registry_rejects_duplicate_names():
    from medlatin.registry import DatasetDescriptor
    with pytest.raises(RegistryConfigError):
        Registry([DatasetDescriptor("X", "efontes_genre"),
                  DatasetDescriptor("X", "ud_treebank")])


def test_registry_rejects_names_that_differ_only_in_case():
    from medlatin.registry import DatasetDescriptor
    with pytest.raises(RegistryConfigError, match="^dataset 'annals' clashes with 'Annals' "
                       r"\(names must differ in more than case\)$"):
        Registry([DatasetDescriptor("Annals", "efontes_genre"),
                  DatasetDescriptor("annals", "efontes_genre")])


def test_registry_config_rejects_unknown_kind(tmp_path):
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[dataset:X]\nkind = mystery\n", encoding="utf-8")
    with pytest.raises(RegistryConfigError):
        load_registry(str(cfg))


@pytest.mark.parametrize("content, error, message", [
    (b"[dataset:A]\nkind = ud_treebank\n[dataset:A]\nkind = ud_treebank\n",
     RegistryConfigError, "already exists"),
    (b"kind = ud_treebank\n", RegistryConfigError, "no section headers"),
    # decoded by errors.read_text, which names the line like every other reader
    (b"[dataset:A]\nkind = ud_\xfftreebank\n", MedlatinError,
     r"line 2: not UTF-8 \(invalid start byte\)"),
    (b"[dataset:A]\nkind = ud_treebank\ntokens = 3\nsentences = 1\navg = abc\n",
     RegistryConfigError, "malformed declared stats"),
    (b"[dataset:Annals]\nkind = efontes_genre\n[dataset:annals]\nkind = efontes_genre\n",
     RegistryConfigError, "dataset 'annals' clashes with 'Annals'"),
], ids=["duplicate-section", "no-section-header", "not-utf8", "bad-avg",
        "names-differ-in-case"])
def test_registry_config_errors_name_the_path(tmp_path, content, error, message):
    cfg = tmp_path / "reg.cfg"
    cfg.write_bytes(content)
    with pytest.raises(error, match=f"reg.cfg: .*{message}"):
        load_registry(str(cfg))


def test_missing_registry_config_names_the_path(tmp_path):
    path = str(tmp_path / "absent.cfg")
    with pytest.raises(MedlatinError, match=f"^{re.escape(path)}: cannot read \\("):
        load_registry(path)


def test_load_dataset_decode_error_names_path_and_line(tmp_path):
    (tmp_path / "bad.conllu").write_bytes(b"1\ta\ta\tNOUN\t_\t_\t_\t_\t_\t_\n\xfe\n")
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("[dataset:Bad]\nkind = efontes_genre\npaths = bad.conllu\n",
                   encoding="utf-8")
    with pytest.raises(MedlatinError, match="bad.conllu: line 2: not UTF-8"):
        load_dataset(load_registry(str(cfg)), "Bad")
