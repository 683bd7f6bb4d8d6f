"""The demo scripts run to completion from a source checkout.

06_correction_experiment.py is left out: it runs a coupled ensemble for about
7 s, and run_coupled is covered by the acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_fields_and_operators.py",
    "02_correction_constant.py",
    "03_stationary_noise.py",
    "04_quadratic_variation.py",
    "05_second_chaos.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
