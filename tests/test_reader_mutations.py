"""Mutated inputs through the CLI, in process: every reader must end in exit
0, 1 or 2 with no exception escaping, and an exit 1 must name the file and
a MedlatinError class.

Each reader gets a tiny valid file that is then truncated, has one byte
flipped or, for the JSON model files, has one value (or object key)
swapped for a wrong-typed value or spliced with a lone-surrogate escape.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlatin.cli import run_cli
from medlatin.errors import MedlatinError

CONLLU = (
    "# sent_id = s1\n"
    "1\tterram\tterra\tNOUN\t_\tCase=Acc|Number=Sing\t_\t_\t_\t_\n"
    "2\tuidet\tuideo\tVERB\t_\tTense=Pres\t_\t_\t_\t_\n"
    "3\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_\n"
    "\n"
    "1\tportam\tporta\tNOUN\t_\tCase=Acc\t_\t_\t_\t_\n"
    "2\t:\t:\tPUNCT\t_\t_\t_\t_\t_\t_\n"
    "\n"
)
REGISTRY = (
    "[dataset:Annals]\nkind = efontes_genre\npaths = annals.conllu\n"
    "tokens = 5\nsentences = 2\navg = 2.50\n"
    "[dataset:PROIEL]\nkind = ud_treebank\npaths = proiel.conllu\n"
)
RESULTS = (
    "#format=medlatin.results.v1\n"
    "run_id\tscenario\tgenre\ttask\taccuracy\n"
    "ud_all__upos\tud_all\tAnnals\tupos\t80.00\n"
    "baseline__upos__annals\tbaseline\tAnnals\tupos\t75.5\n"
)
RULESET = "u_for_v\tv\tu\tanywhere\t\nti_for_ci\tci\tti\tmiddle\tfacio,socius\n"
CONFIG = "seed = 3\nscenario = ud_all\ntasks = upos,lemma\n"
QUERIES = "terram:NOUN\nVidet:VERB\n.:PUNCT\n"

# Per reader: the argv lists that read the mutated file MUT, and whether it
# is a JSON model file.
READERS = {
    "conllu": ([["eval", "--gold", "GOLD", "--pred", "MUT"], ["corpus", "check", "--in", "MUT"]],
               False),
    "tagger-model": ([["tagger", "tag", "--model", "MUT", "--in", "GOLD", "--out", "OUT"],
                      ["tagger", "train", "--task", "upos", "--epochs", "1", "--base", "MUT",
                       "--in", "GOLD", "--out", "OUT"]], True),
    "lemmatizer-model": ([["lemmatize", "run", "--model", "MUT", "--in", "QUERIES",
                           "--out", "OUT"],
                          ["lemmatize", "train", "--base", "MUT", "--in", "GOLD",
                           "--out", "OUT"]], True),
    "results": ([["scenario", "compare", "--results", "MUT"]], False),
    "registry": ([["corpus", "stats", "--registry", "MUT"],
                  ["corpus", "validate", "--registry", "MUT"]], False),
    "ruleset": ([["normalize", "--ruleset", "MUT", "--in", "GOLD", "--out", "OUT"]], False),
    "config": ([["--config", "MUT", "scenario", "plan", "--registry", "REGISTRY"]], False),
    "queries": ([["lemmatize", "run", "--model", "LEMMA", "--in", "MUT", "--out", "OUT"]],
                False),
}

WRONG_VALUES = (None, True, 0, -1, 2 ** 70, 10 ** 400, 1.5, "", "x", "\udcff",
                [], [0], [[]], {}, {"x": 0})


def error_classes(cls=MedlatinError):
    """The names of cls and of every class derived from it."""
    return {cls.__name__}.union(*map(error_classes, cls.__subclasses__()))


def run(argv):
    """run_cli(argv) with stdout a strict UTF-8 stream, as a terminal is."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run_cli(argv)
        stdout.flush()
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    registry_dir = root / "registry"
    registry_dir.mkdir()
    for name in ("annals.conllu", "proiel.conllu"):
        (registry_dir / name).write_text(CONLLU, encoding="utf-8")
    paths = {"GOLD": root / "gold.conllu", "QUERIES": root / "queries.txt",
             "REGISTRY": registry_dir / "registry.cfg", "OUT": root / "out",
             "TAGGER": root / "tagger.json", "LEMMA": root / "lemma.json"}
    for key, text in (("GOLD", CONLLU), ("QUERIES", QUERIES), ("REGISTRY", REGISTRY)):
        paths[key].write_text(text, encoding="utf-8")
    assert run(["tagger", "train", "--task", "upos", "--epochs", "2", "--in", str(paths["GOLD"]),
                "--out", str(paths["TAGGER"])])[0] == 0
    assert run(["lemmatize", "train", "--in", str(paths["GOLD"]),
                "--out", str(paths["LEMMA"])])[0] == 0
    originals = {
        "conllu": CONLLU.encode(), "results": RESULTS.encode(), "registry": REGISTRY.encode(),
        "ruleset": RULESET.encode(), "config": CONFIG.encode(), "queries": QUERIES.encode(),
        "tagger-model": paths["TAGGER"].read_bytes(),
        "lemmatizer-model": paths["LEMMA"].read_bytes(),
    }
    # The registry's mutations stay beside the files its paths name.
    mutated = {reader: (registry_dir / "mutated.cfg" if reader == "registry"
                        else root / f"mutated-{reader}") for reader in READERS}
    for reader in READERS:
        for argv in READERS[reader][0]:  # every command passes on the valid file
            mutated[reader].write_bytes(originals[reader])
            code, err = run(_argv(argv, paths, mutated[reader]))
            assert code == 0, (reader, err)
    return paths, originals, mutated


def _argv(template, paths, mutated):
    return [str(mutated) if arg == "MUT" else str(paths.get(arg, arg)) for arg in template]


def _json_slots(node, slots):
    """Every (container, key) of the parsed JSON tree, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        slots.append((node, key))
        _json_slots(child, slots)
    return slots


def mutate(data: bytes, is_json: bool, draw) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "json"] if is_json else ["truncate", "flip"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        index = draw(st.integers(0, len(data) - 1))
        return data[:index] + bytes([data[index] ^ draw(st.integers(1, 255))]) + data[index + 1:]
    payload = json.loads(data)
    container, key = draw(st.sampled_from(_json_slots(payload, [])))
    if isinstance(container, dict) and draw(st.booleans()):
        container[key + "\udcff"] = container.pop(key)
    else:
        old = container[key]
        spliced = (old + "\udcff",) if isinstance(old, str) else ()
        container[key] = draw(st.sampled_from(WRONG_VALUES + spliced))
    return json.dumps(payload).encode()  # ensure_ascii: a surrogate becomes an escape


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_ends_in_a_named_error(files, reader, data):
    paths, originals, mutated = files
    templates, is_json = READERS[reader]
    mutated[reader].write_bytes(mutate(originals[reader], is_json, data.draw))
    for template in templates:
        code, err = run(_argv(template, paths, mutated[reader]))
        assert code in (0, 1, 2), err
        if code == 1:
            assert str(mutated[reader]) in err, err
            named = re.match(r"error: (\w+): ", err)
            assert named and named[1] in error_classes(), err
