"""The public surface: the package re-exports each submodule's ``__all__``, every
exported name resolves, and moved test utilities stay out."""

import importlib

import pytest

import ccrkit.measures

#: The modules whose ``__all__`` the package re-exports.
SUBMODULES = ("ccrkit.errors", "ccrkit.core", "ccrkit.measures", "ccrkit.ccr", "ccrkit.states")
MODULES = ("ccrkit", *SUBMODULES, "ccrkit.cli")

# Second routes and utilities that only the tests use; they live in tests/helpers.py.
TEST_ONLY = ("nonlocal_coherence_hs_via_entropy", "dephased", "serialize_state", "tensor_product")

# Names that left the library and must not come back, on the package or on the module that
# defined them: purify calls its Jacobi solver, core._jacobi_eigh, directly, and
# correlated_coherence takes the coherence function itself.
REMOVED = ("Spectrum", "hermitian_spectrum", "CoherenceKind")


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


@pytest.mark.parametrize("module_name", ("ccrkit", "ccrkit.core", "ccrkit.measures"))
@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(module_name, name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in module.__all__


def test_package_list_is_the_union_of_the_submodule_lists():
    names = [name for module_name in SUBMODULES for name in importlib.import_module(module_name).__all__]
    assert set(ccrkit.__all__) == {"__version__", *names}
    assert len(ccrkit.__all__) == 45


def test_no_name_is_exported_by_two_submodules():
    # A star import would let the later module shadow the earlier one without warning.
    owners = {}
    for module_name in SUBMODULES:
        for name in importlib.import_module(module_name).__all__:
            assert name not in owners, f"{name} in both {owners[name]} and {module_name}"
            owners[name] = module_name


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_package_names_are_the_defining_modules_objects(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(ccrkit, name) is getattr(module, name), f"ccrkit.{name}"


def test_measure_tolerance_stays_on_its_module():
    assert ccrkit.measures.MEASURE_ATOL == 1e-10
    assert "MEASURE_ATOL" not in ccrkit.__all__
