"""The benchmark probes rebind package attributes by name; they must exist."""

import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve(probes):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owners, attr in probes.TRACED.values()
               for owner in owners if not callable(getattr(owner, attr, None))]
    assert not missing


def test_always_on_probe_attributes_resolve(probes):
    for attr in ("solve_once", "minres", "estimate_memory_gb"):
        assert callable(getattr(probes.cli, attr, None)), attr
