"""Smoke test of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_experiment_scripts_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, argv, marker in (
        ("run_census_experiments.py", ["--qmax", "1000"], "deg4 fit:"),
        ("run_field_experiments.py",
         ["--qmax-bianchi", "10000", "--qmax-system", "200", "--verify-q", "20"],
         "Real-quadratic system counts up to Q = 200"),
    ):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert marker in proc.stdout
