"""Pytest bootstrap.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. in a fully offline environment where ``pip install -e .`` cannot fetch
build dependencies).  When the package *is* installed this is a harmless
no-op because the installed editable path points at the same directory.

Also registers ``--record``: benchmarks then write their numbers to the
tracked ``benchmarks/results/`` instead of the untracked
``benchmarks/.results/`` (see ``benchmarks/conftest.py``).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        default=False,
        help="write benchmark numbers to the tracked benchmarks/results/ "
        "(default: the untracked benchmarks/.results/)",
    )
