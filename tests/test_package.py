"""The package's own description matches what is installed."""

import importlib
import re

import schottky


def test_modules_named_in_package_docstring_import():
    names = re.findall(r":mod:`(schottky\.\w+)`", schottky.__doc__)
    assert len(names) >= 4
    for name in names:
        importlib.import_module(name)


def test_every_exported_name_resolves():
    names = re.findall(r":mod:`(schottky\.\w+)`", schottky.__doc__)
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
