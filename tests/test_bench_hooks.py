"""Every hook point of the benchmark's tracer still names a tkgkit callable
and still reads its call.

``perfbench/hooks.py`` wraps tkgkit attributes by module and attribute
path, and a renamed or deleted one shows up only as ``trace.missing_hooks``
in a traced benchmark run.  ``test_hook_point_resolves`` resolves each path
the way the tracer does, without installing the tracer, which would wrap
tkgkit for every later test.  A hook whose info function reads a changed
argument or result records ``info_error`` on its span instead of its
counts; ``test_layers_trace_a_pipeline_run`` installs the tracer in a
separate process, runs one small pipeline and checks that no hook missed.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_split_files

ROOT = Path(__file__).resolve().parents[1]
HOOKS = ROOT / "perfbench" / "hooks.py"

# argv: perfbench dir, src dir, raw config as JSON; prints what the
# LAYERS tracer saw as one JSON line
TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import hooks
tracer = hooks.Tracer()
tracer.install(hooks.LAYERS)
from tkgkit.pipeline import build_config, run_pipeline
run_pipeline(build_config(json.loads(sys.argv[3])))
print(json.dumps({
    "missing": tracer.missing,
    "want": sorted({hook[2] for hook in hooks.LAYERS}),
    "seen": sorted({span["name"] for span in tracer.spans}),
    "errors": [span for span in tracer.spans if "info_error" in span],
}))
"""


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


def test_layers_trace_a_pipeline_run(tmp_path, tiny_rows):
    # graph-scope split_cpd reaches the signature and CPD hooks too
    raw = {
        "dataset": {"path": str(write_split_files(tmp_path / "data", tiny_rows))},
        "transform": {"method": "split_cpd", "score": "pref", "scope": "graph",
                      "epsilon": "0.5"},
        "train": {"epochs": "1", "dimension": "4", "batch_size": "4"},
        "output": {"dir": str(tmp_path / "out")},
    }
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(HOOKS.parent), str(ROOT / "src"), json.dumps(raw)],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stderr
    traced = json.loads(run.stdout.splitlines()[-1])
    assert traced["missing"] == []
    assert traced["seen"] == traced["want"]
    assert traced["errors"] == []
