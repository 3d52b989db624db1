"""One tkgkit pipeline run in a fresh process, timed from inside.

Usage: ``python3 perfbench/child.py CONFIG SPAWNED_AT HOOKS SPANS``

``CONFIG`` is the run's INI file, ``SPAWNED_AT`` the parent's
``time.perf_counter()`` just before it started this process (the same
system-wide monotonic clock on Linux), ``HOOKS`` is ``stages`` or
``layers`` (see hooks.py) and ``SPANS`` the JSON-lines file the spans go
to, outside the run directory.  The last line of standard output is one
JSON object with the run's wall-clock bounds, the two calibrations around
it, peak RSS and missing hooks.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402  (perfbench/ is sys.path[0] for this script)
import speed  # noqa: E402


def main() -> None:
    config, spawned_at, hook_set, spans_out = sys.argv[1:5]
    tracer = hooks.Tracer()
    tracer.install({"stages": hooks.STAGES, "layers": hooks.LAYERS}[hook_set])
    from tkgkit import pipeline

    cfg = pipeline.build_config(pipeline.read_config_file(config, environ={}))
    # the run is bracketed by two calibrations (speed.py); the first falls
    # inside the set-up interval, so its wall time is reported and taken out
    cal_wall = perf_counter()
    cal_before = speed.calibrate()
    cal_wall = perf_counter() - cal_wall
    start = perf_counter()
    pipeline.run_pipeline(cfg)
    end = perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal_after = speed.calibrate()
    with open(spans_out, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "spawned_at": float(spawned_at),
        "run_start": start,
        "run_end": end,
        "cal_before_s": cal_before,
        "cal_after_s": cal_after,
        "cal_wall_s": cal_wall,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "missing": tracer.missing,
    }))


if __name__ == "__main__":
    main()
