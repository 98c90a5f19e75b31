"""Pytest fixtures for the benchmark harness (see ``bench_utils`` for helpers)."""

import sys
from pathlib import Path

import pytest

# Make the in-repo sources and the sibling helper module importable.
_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_SRC), str(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_utils import RECORD_DIR, RUN_DIR  # noqa: E402


@pytest.fixture(scope="session")
def results_dir(request) -> Path:
    """Directory where every benchmark drops its headline-numbers JSON: the
    untracked ``benchmarks/.results/``, or with ``--record`` (registered in
    the root ``conftest.py``) the tracked record ``benchmarks/results/``."""
    path = RECORD_DIR if request.config.getoption("record", default=False) else RUN_DIR
    path.mkdir(exist_ok=True)
    return path
