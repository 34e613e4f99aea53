"""Meta-tests over the public API surface.

Every ``__all__`` export must resolve and carry a docstring — the
"documented public API" contract — and the top-level package must re-export
the advertised entry points.
"""

import importlib
import inspect

import pytest

import repro

MODULES = [
    "repro",
    "repro.sparse",
    "repro.graph",
    "repro.kernels",
    "repro.core",
    "repro.schedulers",
    "repro.runtime",
    "repro.metrics",
    "repro.suite",
    "repro.resilience",
    "repro.store",
    "repro.service",
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_exports_resolve(modname):
    mod = importlib.import_module(modname)
    assert hasattr(mod, "__all__"), modname
    for name in mod.__all__:
        assert hasattr(mod, name), f"{modname}.{name} missing"


@pytest.mark.parametrize("modname", MODULES)
def test_public_callables_documented(modname):
    mod = importlib.import_module(modname)
    undocumented = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{modname}: undocumented {undocumented}"


@pytest.mark.parametrize("modname", MODULES)
def test_module_docstrings(modname):
    mod = importlib.import_module(modname)
    assert (mod.__doc__ or "").strip(), f"{modname} has no module docstring"


def test_listing2_entry_points():
    """The paper's Listing 2 vocabulary is importable from the top level."""
    assert callable(repro.hdagg)
    assert callable(repro.num_cores)
    assert callable(repro.epsilon)
    assert repro.num_cores() >= 1
    assert 0.0 < repro.epsilon() < 1.0
    for kernel_name in ("sptrsv", "spic0", "spilu0", "gauss_seidel", "spchol"):
        assert kernel_name in repro.KERNELS


def test_scheduler_registry_complete():
    expected = {"hdagg", "wavefront", "spmp", "lbc", "dagp", "mkl", "serial", "coarsenk"}
    assert expected <= set(repro.SCHEDULERS)


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_machines_registry():
    assert {"intel20", "amd64", "laptop4"} <= set(repro.MACHINES)
    assert repro.INTEL20.n_cores == 20
    assert repro.AMD64.n_cores == 64


def test_service_exports_only_the_traffic_model():
    import repro.service

    assert sorted(repro.service.__all__) == ["ReplayConfig", "zipf_weights"]
