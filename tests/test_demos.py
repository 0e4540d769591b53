"""The demos run to completion against the package in src/.

Demo 02 passes build_matrix output straight to spectral_gap and tv_curve
and reports the stationarity error of the uniform law; demo 03 walks the
counting ladder.  Each takes under a second.  Demo 01 is left out: it
draws long chain runs and takes about ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_mixing_diagnostics.py", "03_counting_walkthrough.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
