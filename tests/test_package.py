"""The package root: it republishes each module's public names and nothing else."""

from __future__ import annotations

import pytest

import gapkit
from gapkit import alexpoly, checkers, errors, gapset, infconv, search

MODULES = (alexpoly, checkers, errors, gapset, infconv, search)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_root_republishes_the_module_names(module):
    for name in module.__all__:
        assert getattr(gapkit, name) is getattr(module, name), name


def test_star_import_binds_the_module_names_and_the_version():
    namespace: dict = {}
    exec("from gapkit import *", namespace)
    del namespace["__builtins__"]
    assert len(gapkit.__all__) == len(set(gapkit.__all__))
    assert set(namespace) == set(gapkit.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))
