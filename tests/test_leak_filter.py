"""A leaked file fails a test of this suite, and only of this suite: the filters that
``conftest.py`` adds cover the items under its own directory, not those of a suite
collected beside it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import bimanual_icl

SRC = Path(bimanual_icl.__file__).resolve().parents[1]
LEAKY_TEST = """
import gc


def test_leaks_a_file():
    handle = open(__file__)
    del handle  # never closed
    gc.collect()
"""


def test_a_leak_fails_this_suite_and_not_one_beside_it(tmp_path):
    for suite in ("suite", "beside"):
        (tmp_path / suite).mkdir()
        (tmp_path / suite / f"test_{suite}_leak.py").write_text(LEAKY_TEST, encoding="utf-8")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "suite")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", "suite", "beside"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert "FAILED suite/test_suite_leak.py::test_leaks_a_file" in out.stdout, out.stdout
    assert "1 failed, 1 passed" in out.stdout, out.stdout
