"""The sweep driver scripts run end to end and write their CSVs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, stems", [
    ("condensate_convergence.py", ["convergence_theta", "convergence_product",
                                   "convergence_coherent"]),
    ("mixture_convergence.py", ["mixture_product", "mixture_coherent"]),
])
def test_sweep_script_writes_csvs(tmp_path, script, stems):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for stem in stems:
        lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
        assert len(lines) > 1
