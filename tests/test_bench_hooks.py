"""Every hook point of the benchmark's tracer still names a tkgkit callable.

``perfbench/hooks.py`` wraps tkgkit attributes by module and attribute
path, and a renamed or deleted one shows up only as ``trace.missing_hooks``
in a traced benchmark run.  This resolves each path the way the tracer
does, without installing the tracer, which would wrap tkgkit for every
later test.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def hook_points() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return [(module, attr) for module, attr, *_ in hooks.LAYERS]


@pytest.mark.parametrize("module, attr", hook_points())
def test_hook_point_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
