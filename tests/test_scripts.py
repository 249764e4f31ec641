"""The sweep driver scripts run end to end and write their CSVs; the
code-line counter counts code only."""

import os
import subprocess
import sys
import tempfile
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


def _code_lines(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport os  # and one more\n\n\n'
        'class C:\n    """Class docstring."""\n\n    def f(self):\n'
        '        """Function\n        docstring."""\n        return """two\nlines"""\n')
    (tmp_path / "b.py").write_text("x = (1,\n     2)\n")
    assert _code_lines(str(tmp_path)) == ["a.py 5", "b.py 2", "total 7"]


def test_code_line_counter_reports_every_module_of_the_package():
    lines = _code_lines()
    modules = sorted(p.name for p in (ROOT / "src" / "focklab").glob("*.py"))
    assert [line.split()[0] for line in lines] == modules + ["total"]
    counts = [int(line.split()[1]) for line in lines]
    assert counts[-1] == sum(counts[:-1])


def test_snapshot_writes_one_file_per_run_without_wall_clock_fields(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = ["theta", "theta-log", "product", "coherent", "product-superposition",
             "theta-superposition", "coherent-superposition"]
    runs = {f"{name}-{threads}t-{fmt}.txt"
            for name in names for fmt in ("csv", "json") for threads in (1, 2)}
    others = {"hartree-two-times.txt", "hartree-one-time.txt", "fit-csv.txt", "fit-json.txt",
              "refusal-unknown-key.txt", "refusal-above-cap.txt", "check-quick.txt",
              "refusal-constant-schedule.txt", "refusal-nested.txt",
              "refusal-unwritable-report.txt", "refusal-subnormal-norm.txt"}
    assert {p.name for p in tmp_path.iterdir()} == runs | others
    for path in tmp_path.iterdir():
        text = path.read_text(encoding="utf-8")
        assert "total_runtime_s" not in text and '"seconds"' not in text
        if "-2t-json" in path.name:
            assert '"runtime_s"' not in text
        elif path.name in runs and path.name.endswith("-csv.txt"):  # runtime_s cells blank
            rows = text.split("n,m,t,trace_dist", 1)[1].splitlines()[1:]
            assert rows and all(r.endswith(",") for r in rows)
    assert "suite: PASS (quick)" in (tmp_path / "check-quick.txt").read_text()
    assert "(101 samples" in (tmp_path / "hartree-one-time.txt").read_text()
    assert (tmp_path / "refusal-unknown-key.txt").read_text().startswith("exit 2\nconfig error:")
    assert (tmp_path / "refusal-above-cap.txt").read_text().startswith("exit 3\ncapacity error:")
    for name in ("constant-schedule", "nested", "unwritable-report", "subnormal-norm"):
        text = (tmp_path / f"refusal-{name}.txt").read_text()
        assert text.startswith("exit 2\nconfig error:") and text.count("\n") == 2
        assert tempfile.gettempdir() not in text  # the scratch directory reads TMP or OUT
