"""Every name a layer module lists in ``__all__`` resolves, and every name
the package re-exports is listed in some layer's ``__all__``.

Span tracing wraps exactly the names each layer lists, so a stale entry
left behind by a deletion would break a traced benchmark run, and a
re-exported name missing from ``__all__`` would run untimed.
"""

import importlib
import inspect

import pytest

import bostbc

LAYERS = ["codes", "structure", "linalg", "decoder", "sim"]


@pytest.mark.parametrize("layer", LAYERS)
def test_all_entries_resolve(layer):
    module = importlib.import_module(f"bostbc.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_listed_by_a_layer():
    listed = set()
    for layer in LAYERS:
        listed.update(importlib.import_module(f"bostbc.{layer}").__all__)
    exported = {name for name, value in vars(bostbc).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported - listed) == []
