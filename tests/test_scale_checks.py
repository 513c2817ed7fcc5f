"""``scale_checks.py`` runs outside tier-1, but its collection runs here: an
import error or a dropped case fails tier-1 too, on every numpy."""
import subprocess
import sys
from pathlib import Path


def test_scale_checks_collect_30_cases():
    module = Path(__file__).with_name("scale_checks.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", str(module)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum("::" in line for line in proc.stdout.splitlines()) == 30
