"""Each package's public names are its modules' ``__all__``, each listed once, in its module."""

import importlib

import pytest

import fastron
import fastron.bench


@pytest.mark.parametrize("package, modules", [
    (fastron, ("kernels", "model", "sampling", "geometry", "planning")),
    (fastron.bench, ("config", "report", "runners", "scenarios")),
])
def test_package_all_is_the_concatenation_of_its_modules_all(package, modules):
    mods = [importlib.import_module(f"{package.__name__}.{m}") for m in modules]
    assert package.__all__ == [name for mod in mods for name in mod.__all__]
    assert len(set(package.__all__)) == len(package.__all__)
    for mod in mods:
        for name in mod.__all__:
            assert getattr(package, name) is getattr(mod, name)
