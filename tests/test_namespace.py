"""invset's lazy re-exports: each name is its module's own object, listed by
``dir`` and ``__all__``, read from its module on every access and never bound
in the package namespace."""

import importlib

import pytest

import invset

EXPORTS = invset._EXPORTS  # name -> module


def _module(name):
    return importlib.import_module(EXPORTS[name])


def test_each_name_is_the_object_its_module_binds():
    assert len(EXPORTS) == 62
    for name in EXPORTS:
        assert getattr(invset, name) is getattr(_module(name), name), name


def test_dir_and_star_import_list_every_name():
    assert set(EXPORTS) <= set(dir(invset))
    assert sorted(invset.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from invset import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(_module(name), name), name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        invset.no_such_name
    assert not hasattr(invset, "no_such_name")


def test_resolving_every_name_leaves_the_package_namespace_unchanged():
    for name in EXPORTS:
        _module(name)  # importing a submodule binds it in the package; that is not a resolved name
    before = dict(vars(invset))
    for name in EXPORTS:
        getattr(invset, name)
    assert vars(invset) == before
    assert not set(EXPORTS) & set(vars(invset))
