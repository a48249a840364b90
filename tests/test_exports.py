"""The package's export lists name only what its modules hold."""

import importlib
import pkgutil

import pytest

import torusbayes

MODULES = sorted(info.name for info in pkgutil.iter_modules(torusbayes.__path__))


def test_package_exports_resolve():
    names = torusbayes.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(torusbayes, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"torusbayes.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_test_only_oracles_are_not_exported():
    # the Monte Carlo and direct-solve oracles and the ball law live outside the public API;
    # the package's name posterior is the function, so the module comes from importlib
    posterior_module = importlib.import_module("torusbayes.posterior")
    for name in ("MultiplierBall", "credible_ball_prob", "map_estimate_discrete"):
        assert name not in torusbayes.__all__ and not hasattr(torusbayes, name)
        assert name not in posterior_module.__all__
