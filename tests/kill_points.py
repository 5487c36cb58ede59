"""Kill a mini grid at every os.replace it makes, then re-run it.

    PYTHONPATH=src python tests/kill_points.py

`scenario run --scenario all` on the mini registry writes each model file
and then the results store through os.replace (39 models plus the results
merge, 40 points).  For every k from 1 to the last point, a child grid is
killed at its k-th os.replace.  Each kill must leave exactly one temporary
file, every complete model file must load and the results store must be
absent or readable; a re-run into the same --out must then print the clean
run's stdout and leave its files, byte for byte.  Exit status 0 when every
point passes.  Tier-1 (test_cli.py) checks three of these points; this
script is not collected by pytest.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from medlatin.cli import run_cli

from conftest import MINI_REGISTRY
from test_cli import _assert_outputs_load, _files, _kill_at_replace

ARGV = ["scenario", "run", "--scenario", "all", "--registry", MINI_REGISTRY]


def run_grid(out: Path) -> str:
    """Run the grid in process into out; its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(ARGV + ["--out", str(out)]) == 0
    return stdout.getvalue()


def main() -> int:
    started = perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        expected_out = run_grid(clean)
        expected = _files(clean)
        n_models = len(os.listdir(clean / "models"))
        for k in range(1, n_models + 2):
            out = Path(tmp) / f"killed-{k}"
            _kill_at_replace(k, ARGV + ["--out", str(out)])
            orphans = [name for name in _files(out) if name.endswith(".tmp")]
            left = "models" if k <= n_models else ""
            assert len(orphans) == 1 and os.path.dirname(orphans[0]) == left, (k, orphans)
            _assert_outputs_load(out, n_complete=min(k - 1, n_models))
            assert run_grid(out) == expected_out, k
            assert _files(out) == expected, k
    print(f"{n_models + 1} kill points ({n_models} models and the results merge) "
          f"passed in {perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
