"""The scripts in scripts/ run at their defaults and write their tables."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsfa

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, tables", [
    ("compact_features.py", ["error_rates.csv"]),
    ("regression_sweep.py", ["metrics.csv"]),
])
def test_script_runs_at_defaults(tmp_path, script, tables):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(gsfa.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for table in tables:
        with open(tmp_path / table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1, f"{table} has no data rows"
