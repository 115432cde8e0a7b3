"""The package namespace: one list of public names, built from the submodules' lists."""

import importlib

import blipsim

SUBMODULES = ("errors", "lattice", "spectral", "observables", "fields", "scattering", "propagation")


def test_public_names_are_the_union_of_the_submodules_lists():
    modules = [importlib.import_module(f"blipsim.{name}") for name in SUBMODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert set(blipsim.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(blipsim, name) is getattr(module, name), (module.__name__, name)
