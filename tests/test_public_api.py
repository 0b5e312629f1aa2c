"""The public surface: every exported name resolves, and moved test utilities stay out."""

import importlib

import pytest

MODULES = ("ccrkit", "ccrkit.core", "ccrkit.measures", "ccrkit.ccr", "ccrkit.states", "ccrkit.cli")

# Second routes that only the tests use; they live in tests/helpers.py.
TEST_ONLY = ("nonlocal_coherence_hs_via_entropy", "dephased", "serialize_state")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", ("ccrkit", "ccrkit.core", "ccrkit.measures", "ccrkit.cli"))
@pytest.mark.parametrize("name", TEST_ONLY)
def test_test_only_routes_are_not_in_the_library(module_name, name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in module.__all__
