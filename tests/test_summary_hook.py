"""The ACCEPTANCE summary in conftest.py counts a failure in any phase,
collection included."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SUITE = '''
import pytest

@pytest.fixture
def bad_setup():
    raise RuntimeError("setup")

@pytest.fixture
def bad_teardown():
    yield
    raise RuntimeError("teardown")

def test_criterion_01():
    pass

def test_criterion_02(bad_setup):
    pass

def test_criterion_03(bad_teardown):
    pass

def test_criterion_04a():
    pass

def test_criterion_04b():
    assert False
'''

# imports a module that does not exist, so none of its tests ever run
BROKEN = '''
import no_such_module_anywhere

def test_criterion_05():
    pass

def test_criterion_06a():
    pass
'''


def _summary(tmp_path, files):
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return [ln for ln in proc.stdout.splitlines() if ln.startswith("ACCEPTANCE")]


def test_fixture_errors_fail_their_criterion(tmp_path):
    assert _summary(tmp_path, {"test_inner.py": SUITE}) == [
        "ACCEPTANCE 1: PASS",
        "ACCEPTANCE 2: FAIL",
        "ACCEPTANCE 3: FAIL",
        "ACCEPTANCE 4: FAIL",
    ]


def test_collection_errors_fail_every_criterion_the_file_names(tmp_path):
    assert _summary(tmp_path, {"test_inner.py": SUITE, "test_broken.py": BROKEN}) == [
        "ACCEPTANCE 1: PASS",
        "ACCEPTANCE 2: FAIL",
        "ACCEPTANCE 3: FAIL",
        "ACCEPTANCE 4: FAIL",
        "ACCEPTANCE 5: FAIL",
        "ACCEPTANCE 6: FAIL",
    ]
