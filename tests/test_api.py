"""The public names of the package: every export resolves, none is stale."""

import importlib

import pytest

import triwitness

MODULES = ("channel", "cli", "explore", "qubit", "randomness", "scenario", "spheres", "witness")
#: Names that were part of the API once and must not come back as exports.
REMOVED = {
    "p_bob",
    "p_bob_given_z",
    "p_charlie",
    "bob_state_from_joint",
    "charlie_state_from_joint",
    "qrac_value",
    "determinant_value",
    "Accessor",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"triwitness.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"triwitness.{name}.__all__ names missing {attr!r}"
    assert not REMOVED & set(exported)
    assert not REMOVED & set(vars(module))


def test_package_exports_resolve_and_star_import_works():
    assert len(triwitness.__all__) == len(set(triwitness.__all__))
    for attr in triwitness.__all__:
        assert hasattr(triwitness, attr), f"triwitness.__all__ names missing {attr!r}"
    namespace: dict = {}
    exec("from triwitness import *", namespace)
    assert set(triwitness.__all__) <= set(namespace)
    assert not REMOVED & set(triwitness.__all__)
    assert not REMOVED & set(vars(triwitness))
