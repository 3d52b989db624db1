"""Record the reference artifact digests and write BENCHMARK.json.

Usage (from the repository root)::

    python3 perfbench/record.py

For every workload and each seed in ``SEEDS`` this generates the dataset,
runs the pipeline once in a child process and stores the SHA-256 of its
path-independent artifacts in perfbench/reference.json, with the run
context.  run.py then fails any run whose digest differs from the recorded
one, which holds the pipeline to its byte-identical output for a fixed
config.  Re-record only when a change is meant to alter the results, and
say so.

BENCHMARK.json is rewritten from the workload and metric definitions.
"""
from __future__ import annotations

import json
import shutil

import checks
import gen
import layers
import run
from workloads import WORKLOADS

RUN_SECONDS = 38
SEEDS = range(32)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in run.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in layers.PER_LAYER
        ],
    }


def main() -> None:
    digests: dict[str, dict[str, str]] = {}
    for wl in WORKLOADS.values():
        digests[wl.name] = {}
        for seed in SEEDS:
            work = run.WORK / f"record-{wl.name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            data = gen.generate(wl.shape, seed, wl.scale, wl.test)
            gen.write(data, work / "data")
            ini = work / "run.ini"
            ini.write_text(wl.ini(work / "data", data.fmt, work / "out"), encoding="utf-8")
            child, _, err = run.spawn(ini, "stages", work / "spans.jsonl")
            if child is None:
                raise SystemExit(f"{wl.name} seed {seed}: {err}")
            problems, digest = run.check_run(work / "out", data, {}, {})
            if problems:
                raise SystemExit(f"{wl.name} seed {seed}: {'; '.join(problems)}")
            digests[wl.name][str(seed)] = digest
            print(wl.name, seed, digest[:16], gen.format_stats(data.stats), flush=True)
            shutil.rmtree(work)
    context = run.run_context(next(iter(WORKLOADS.values())), SEEDS[0])
    for key in ("workload", "why", "seed"):
        context.pop(key)
    context["workloads"] = {w.name: w.why for w in WORKLOADS.values()}
    context["digested_artifacts"] = list(checks.DIGEST_ARTIFACTS)
    run.REFERENCE.write_text(json.dumps({"context": context, "digests": digests},
                                        indent=2, sort_keys=True) + "\n")
    (run.ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")


if __name__ == "__main__":
    main()
