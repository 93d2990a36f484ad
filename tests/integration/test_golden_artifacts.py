"""The committed ``results/`` artifacts are a byte-for-byte golden.

``amped export`` regenerates every figure/table CSV and the summary
report from the model.  Any change to summation order, routing or
formatting that moves a single digit fails here; a change that moves
the numbers on purpose regenerates ``results/`` with ``amped export``
and says why in the change log.

The export runs in a fresh interpreter so no state left behind by
other tests (caches, registries, tracer settings) can leak into it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "results"


def test_export_matches_committed_results(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "export", "--outdir",
         str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    golden = sorted(path.name for path in RESULTS.iterdir())
    produced = sorted(path.name for path in tmp_path.iterdir())
    assert produced == golden
    mismatched = [name for name in golden
                  if (tmp_path / name).read_bytes()
                  != (RESULTS / name).read_bytes()]
    assert not mismatched, (
        f"amped export differs from results/ in {mismatched}; "
        f"regenerate with `amped export` only if the change is intended")
