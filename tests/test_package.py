"""Package-level smoke tests: imports, version, public API exports."""

import importlib

import pytest

import repro


SUBPACKAGES = [
    "repro.sim",
    "repro.network",
    "repro.network.transport",
    "repro.core",
    "repro.cluster",
    "repro.energy",
    "repro.workloads",
    "repro.metrics",
    "repro.baselines",
    "repro.experiments",
    "repro.analysis",
    "repro.cli",
]


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_import_cleanly(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ exports missing name {name}"


def test_quickstart_symbols_are_importable():
    from repro.experiments import ScenarioSpec, run_comparison  # noqa: F401
    from repro.core import ScdaController  # noqa: F401
    from repro.network import build_tree_topology  # noqa: F401
