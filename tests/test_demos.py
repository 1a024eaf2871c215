"""Every script in demos/ runs to completion with nothing on stderr, and
prints exactly what it printed when its output was frozen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; the same under any PYTHONHASHSEED
STDOUT_SHA256 = {
    "figure_eight_covers.py": "2c543a00ec5e09c6dcf86c78eeca5eb502519c732cbb98a085b551db3e22ba9f",
    "heisenberg_girth.py": "50683c020894ca2537a47028933d58fc3915acfb9591a880413e8e932221a0b5",
    "lcm_witnesses.py": "e0857ffc2d9901f0e7beeec1f0596528ed51945475c49c38db39db88de0a5fb0",
    "quotients_and_divisibility.py": "1074ce27358f216f6ab5555af1f5f58f99d08e477e1608195f3c3d704e87461b",
    "words_and_growth.py": "4db500b3cb4d6af6759a104cda6d0b9f39e7234fc002f9cabdfe1e13a0c3d9ae",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name]
