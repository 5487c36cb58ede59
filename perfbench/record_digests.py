"""Rewrite perfbench/digests.json: what one iteration of each workload
produces at the default seed.  For every workload that is the sha256 of the
annotation output and the lemma cascade class counts (synth-annotate only;
null on the grids); for the grids also one digest per training run.

    python3 perfbench/record_digests.py

Run it only when a change alters results.tsv or a model file on purpose,
and say why in CHANGES.md; run.py checks every default-seed iteration
against these digests.
"""

from __future__ import annotations

import json
import os
import shutil
from time import perf_counter

import run


def main() -> None:
    digests = {}
    for workload in ("mini-grid", "synth-grid", "synth-annotate"):
        work = os.path.join(run.WORK, f"digests-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        deadline = perf_counter() + run.HARD_DEADLINE_S
        spec, _, _ = run.inputs(workload, run.DEFAULT_SEED, work, deadline)
        spec.update(trace=False, setup_only=False, run_id="digests",
                    out=os.path.join(work, "grid"))
        result, error = run.child(spec, os.path.join(work, "spec.json"), deadline)
        if result is None:
            raise SystemExit(f"{workload}: {error}")
        digests[workload] = {"seed": run.DEFAULT_SEED,
                             "output_sha256": result["output_sha256"],
                             "lemma_classes": result["lemma_classes"]}
        if spec["mode"] == "grid":
            digests[workload]["runs"] = run.grid_digests(spec["out"])
        shutil.rmtree(work)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
