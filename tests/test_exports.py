"""Every public name of the package resolves through its lazy exports.

The exports load their submodule on first access (PEP 562), so a name whose
function was deleted or renamed would otherwise fail only when a caller
first touches it.
"""

import importlib

import pytest

import star_kge


def test_all_lists_every_export_in_order():
    assert star_kge.__all__ == sorted(star_kge._EXPORTS)
    assert set(star_kge.__all__) <= set(dir(star_kge))


@pytest.mark.parametrize("name", star_kge.__all__)
def test_export_resolves(name):
    module = importlib.import_module(f"star_kge.{star_kge._EXPORTS[name]}")
    assert star_kge.__getattr__(name) is getattr(module, name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        star_kge.__getattr__("no_such_name")
