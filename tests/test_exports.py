"""Every name a module exports is there to be read.

Tools that walk the public API (the perfbench tracer among them) read
``module.__dict__[name]`` for each ``__all__`` entry, so a stale entry is an
error there, not just at ``from gordian.x import *``.  And an exported name
is either called by the package or documented in README.md: a public name
that only tests call is surface to delete.  The package itself re-exports
only what README.md documents.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gordian

MODULES = sorted(info.name for info in pkgutil.iter_modules(gordian.__path__))
PACKAGE = Path(gordian.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def code_reads() -> set[tuple[str, str, str | None]]:
    """(module, name, top-level definition it sits in) for every bare name
    that code in the package reads.  Docstrings, comments, ``__all__``
    entries and import lines hold no reads, and an attribute such as
    ``info.components`` reads no module-level name."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((path.stem, node.id, owner))
    return reads


def readme_names() -> set[str]:
    """Identifiers README.md writes as code: inside inline code spans, and
    inside fenced blocks outside their ``#`` comments."""
    text = README.read_text(encoding="utf-8")
    fence = r"(?ms)^```[^\n]*\n(.*?)^```"
    code = [re.sub(r"#.*", "", block) for block in re.findall(fence, text)]
    code += re.findall(r"`([^`\n]+)`", re.sub(fence, "", text))
    return {word for piece in code for word in re.findall(r"[A-Za-z_]\w*", piece)}


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


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_called_or_documented(name):
    module = importlib.import_module(f"gordian.{name}")
    called = {attr for stem, attr, owner in code_reads() if not (stem == name and owner == attr)}
    unused = set(getattr(module, "__all__", [])) - called - readme_names()
    assert sorted(unused) == []


def test_package_all_names_are_documented():
    assert sorted(set(gordian.__all__) - readme_names()) == []
