"""The benchmark seam: every method ``perf/spans.py`` wraps must exist.

The repo benchmark (``perf/``, see ``BENCHMARK.json``) times the layers
by wrapping the methods its ``HOOKS`` table names, each looked up in its
owner's *own* ``__dict__``. A refactor that renames a hooked method or
moves it to a base class leaves the traced run with ``missing_hooks``
and per-layer metrics that silently read 0 — this test fails first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perf" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="no perf/ directory")
def test_every_hook_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the body executes.
    monkeypatch.setitem(sys.modules, "perf_spans", spans)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    missing = []
    for hook in spans.HOOKS:
        try:
            spans._resolve(hook.target)
        except (ImportError, AttributeError, KeyError):
            missing.append(hook.target)
    assert not missing, f"perf/spans.py hooks no longer resolve: {missing}"
