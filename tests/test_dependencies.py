"""The package runs on numpy alone: scipy is a test-only oracle, and the
Nelder-Mead module that the fits once used is gone.

A fresh interpreter, which has imported nothing the tests import, fits a
sample, analyzes a small WAV in both modes and the float32 golden piece in
full mode (whose exponentiated-Weibull fit is decided against the Frechet MLE),
and then reports what it has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from soundnet import distfit
from soundnet.distfit import DistFamily
from test_golden import _write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib.util, json, sys
from pathlib import Path

import numpy as np

from soundnet import distfit
from soundnet.cli import RunConfig, analyze_file

report = distfit.best_fit(np.random.default_rng(0).lognormal(size=500))
analyze_file(Path(sys.argv[1]), RunConfig())
analyze_file(Path(sys.argv[1]), RunConfig(mode="full"))
frechet = analyze_file(Path(sys.argv[2]), RunConfig(mode="full"))[1].per_family[distfit.DistFamily.EXPONENTIATED_WEIBULL]
print(json.dumps({
    "best": report.best.value,
    "frechet_reason": frechet.reason,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "simplex": importlib.util.find_spec("soundnet.simplex") is not None,
}))
"""


def test_soundnet_runs_without_scipy_or_the_simplex(tmp_path):
    _write_corpus(tmp_path / "in")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "in" / "a_pcm16.wav"), str(tmp_path / "in" / "c_float32.wav")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["best"] in {family.value for family in DistFamily}
    assert loaded["frechet_reason"] == distfit.BOUNDARY_A
    assert loaded["scipy"] == []
    assert loaded["simplex"] is False
