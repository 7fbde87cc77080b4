#!/usr/bin/env python3
"""Run the acceptance suite with per-criterion PASS/FAIL lines visible.

    python3 scripts/run_acceptance.py [PYTEST ARGS...]

Runs from a source checkout: src/ is put on the child's PYTHONPATH.  Extra
arguments go to pytest, e.g. `-k criterion_1` to run one criterion.
"""

import os
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    raise SystemExit(
        subprocess.call(
            [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s", *sys.argv[1:]],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=path),
        )
    )
