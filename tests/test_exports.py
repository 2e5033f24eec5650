"""Every name a module exports is there to be read.

Tools that walk the public API (the perfbench tracer among them) read
``module.__dict__[name]`` for each ``__all__`` entry, so a stale entry is an
error there, not just at ``from gordian.x import *``.
"""

import importlib
import pkgutil

import pytest

import gordian

MODULES = sorted(info.name for info in pkgutil.iter_modules(gordian.__path__))


def test_every_module_is_listed():
    assert {"adjacency", "cli", "moves", "rules", "words"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined_in_the_module(name):
    module = importlib.import_module(f"gordian.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if attr not in module.__dict__] == []
    assert len(set(exported)) == len(exported)


def test_package_all_names_resolve():
    assert [attr for attr in gordian.__all__ if not hasattr(gordian, attr)] == []
