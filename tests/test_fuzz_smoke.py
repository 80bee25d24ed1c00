"""``tools/fuzz_smoke.py`` runs clean in a short budget.

The tool builds every fuzz target on each kernel path that loads (the
bytes must match) and decodes every corrupted input on each; any untyped
error, deadline overrun or path disagreement is a violation.  Three
seconds covers the build check and a pass over every target.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fuzz_smoke_reports_no_violations():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fuzz_smoke.py"),
         "--seconds", "3", "--seed", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out[-3000:]
    assert " 0 violations" in proc.stdout, out[-3000:]
