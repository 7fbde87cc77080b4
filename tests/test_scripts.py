import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_greedy_vs_exact(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "greedy_vs_exact.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_greedy_vs_exact_script_runs():
    proc = run_greedy_vs_exact("--trials", "3")
    assert proc.returncode == 0, proc.stderr
    assert "graphs, n=9" in proc.stdout


def test_greedy_vs_exact_script_times_the_exact_search_under_its_cap():
    proc = run_greedy_vs_exact("--n", "12", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert "graphs, n=12" in proc.stdout and "exact ccw time: median" in proc.stdout
    proc = run_greedy_vs_exact("--n", "12", "--trials", "2", "--limits-n", "11")
    assert proc.returncode != 0 and "cap is 11" in proc.stderr and "Traceback" not in proc.stderr


def test_run_acceptance_script_runs_one_criterion_from_a_source_checkout():
    # no PYTHONPATH: the script must find the package under src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_acceptance.py"), "-k", "criterion_1_"],
        env=env,
        cwd=ROOT / "tests",
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ACCEPTANCE 1: PASS" in proc.stdout
