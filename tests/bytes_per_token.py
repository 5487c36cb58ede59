"""Memory a parsed corpus holds per token.

Generates perfbench/synth.py's held-out corpus (synth-annotate's, 1,000
sentences at seed 0), reads it with conllu.read_conllu under
tracemalloc, and reports the bytes still held per token once the Document
is built, beside the peak per token during the read.  It reports only;
nothing is checked.

    PYTHONPATH=src python tests/bytes_per_token.py

The Markdown table is appended to $GITHUB_STEP_SUMMARY when that is set,
and written to stdout otherwise.
"""

from __future__ import annotations

import os
import platform
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import synth  # noqa: E402  (puts src/ and tests/ on sys.path)
from medlatin.conllu import read_conllu  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        synth.generate(work, 0, genre_sentences=2, ud_sentences=2, heldout_sentences=1000)
        tracemalloc.start()
        doc = read_conllu(os.path.join(work, "heldout.conllu"))
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    tokens = doc.token_count()
    table = [
        f"### Bytes per parsed token (Python {platform.python_version()})",
        "",
        "| sentences | tokens | held B/token | peak B/token |",
        "|---:|---:|---:|---:|",
        f"| {len(doc.sentences)} | {tokens} | {held / tokens:.0f} | {peak / tokens:.0f} |",
        "",
    ]
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write("\n".join(table) + "\n")
    else:
        sys.stdout.write("\n".join(table) + "\n")


if __name__ == "__main__":
    main()
