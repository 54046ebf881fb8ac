"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_reports_every_metric_and_runs_the_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
