"""The package's public surface: every exported name exists, and the
linear algebra kept in ``support`` as test references has no copy in the
package."""

import importlib
import pkgutil

import pytest

import quadinv

EXPORTING = ("matcore", "horizon", "model", "verifier", "cli")
TEST_ONLY = (
    "sym_eig",
    "inv_sqrt",
    "weighted_opnorm",
    "generalized_lmax",
    "mat_pow",
    "nu",
    "NotPositiveDefinite",
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
