"""Import-cost regressions: heavy optional dependencies load on first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_scipy_optimize_deferred_until_first_fit():
    """Simulating, serving or predicting never imports ``scipy.optimize``."""
    code = """
import sys
import numpy as np
import repro.gp, repro.al, repro.datasets.generate, repro.serve
assert "scipy.optimize" not in sys.modules, "imported eagerly"
from repro.gp import GaussianProcessRegressor
X = np.linspace(0.0, 1.0, 8)[:, None]
gp = GaussianProcessRegressor(rng=0).fit(X, np.sin(3.0 * X[:, 0]))
assert "scipy.optimize" in sys.modules
assert np.all(np.isfinite(gp.predict(X)))
print("ok")
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
