"""The package's public surface: every exported name exists, the package
re-exports exactly what its modules export, the linear algebra and step-level
pipeline kept in ``support`` as test references have no copy in the package,
and the numeric thresholds are fixed constants, not settings."""

import importlib
import inspect
import json
import pkgutil

import pytest

import quadinv
from quadinv import horizon
from quadinv.cli import main
from quadinv.model import InitialSet

EXPORTING = ("matcore", "horizon", "model", "verifier", "cli")
TEST_ONLY = (
    "sym_eig",
    "inv_sqrt",
    "weighted_opnorm",
    "generalized_lmax",
    "mat_pow",
    "nu",
    "NotPositiveDefinite",
    "K_of",
    "find_k_strict",
    "s_value",
    "nu_sequence",
)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"quadinv.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_module_defines_test_only_names():
    modules = [quadinv] + [
        importlib.import_module(f"quadinv.{info.name}")
        for info in pkgutil.iter_modules(quadinv.__path__)
    ]
    assert "quadinv.matcore" in [m.__name__ for m in modules]
    found = [(m.__name__, n) for m in modules for n in TEST_ONLY if hasattr(m, n)]
    assert found == []


@pytest.mark.parametrize("name", ["horizon", "model", "verifier"])
def test_package_reexports_exactly_the_module_exports(name):
    module = importlib.import_module(f"quadinv.{name}")
    reexported = {
        n for n, value in vars(quadinv).items()
        if getattr(value, "__module__", None) == module.__name__
    }
    assert reexported == set(module.__all__)


@pytest.mark.parametrize("name", ["mu", "tail_bound"])
def test_envelope_pieces_are_not_exported(name):
    assert not hasattr(quadinv, name)
    assert name not in horizon.__all__


def test_no_public_callable_takes_a_tolerance():
    callables = [InitialSet.from_vertices] + [
        getattr(module, n)
        for module in map(importlib.import_module, (f"quadinv.{m}" for m in EXPORTING))
        for n in module.__all__
        if callable(getattr(module, n))
    ]
    takes = [f.__qualname__ for f in callables if "tol" in inspect.signature(f).parameters]
    assert takes == []


@pytest.mark.parametrize("name", ["Tolerances", "DEFAULTS"])
def test_no_tolerance_record_is_exported(name):
    assert not hasattr(quadinv, name)


@pytest.mark.parametrize("command", ["verify", "bound", "simulate", "export"])
def test_tolerance_flag_is_a_usage_error(tmp_path, capsys, command):
    doc = {"A": [[0.5]], "initial_set": {"vertices": [[1.0]]},
           "property": {"Q": [[1.0]], "alpha": 2.0}}
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), "--tol", "x=1"])
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err
