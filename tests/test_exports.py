"""Every name a layer module lists in ``__all__`` resolves.

Span tracing looks up each listed name, so a stale entry left behind by a
deletion would break a traced benchmark run.
"""

import importlib

import pytest


@pytest.mark.parametrize("layer", ["codes", "structure", "linalg", "decoder", "sim"])
def test_all_entries_resolve(layer):
    module = importlib.import_module(f"bostbc.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
