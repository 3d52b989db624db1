"""Pipeline benchmark for tkgkit: one workload, one seed, one timed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wd12k-embed --seed 1 --seconds 38 --trace 0

The run generates the workload's dataset from ``--seed`` (perfbench/gen.py),
then runs ``tkgkit.pipeline.run_pipeline`` on it again and again, each time
in a fresh child process (closed loop, one client, runs one after another),
until ``--seconds`` are used up.  Every run's outputs are checked
(checks.py); a run that fails a check counts in ``failed``.  Each run's
timings are scaled to a reference host speed measured right around it
(speed.py), and each metric is the median over the window's runs.

``--trace 0`` times whole stages only and reports the end-to-end metrics.
``--trace 1`` alternates untraced runs with runs that record a span at every
module boundary (hooks.py) and reports the per-layer metrics, the tracing
overhead and the workload-shape check (layers.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the same numbers, every sample and the run context goes to
``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gen
import layers
import speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

# one BLAS/OpenMP thread per child: steadier timings on a small shared
# machine, and matrix products sum in the same order on every machine
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_RUNS = 4
# no child starts after STOP_STARTING_S, and a hung child is killed after
# CHILD_TIMEOUT_S, so a run ends within 180 s
CHILD_TIMEOUT_S = 120.0
STOP_STARTING_S = 50.0

# (name, unit, better, bound).  Each run's timings are scaled to the
# reference host speed (speed.py); a timing is the median over the window's
# runs, and so is peak RSS, which varies by under 1 % for a seed and by up to
# 2 % between seeds.  setup_s is the median of the window's set-ups, so work
# moved into set-up shows.
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# stage throughputs of the untraced runs, reported with the per-layer
# metrics: on the CPD workloads train and evaluate take a few hundredths of
# a second, too little to divide by with a bound
STAGE_RATES = {
    "train_triples_per_s": "embed.train_triples_per_s",
    "eval_queries_per_s": "eval.queries_per_s",
}


def scaled(raw: dict[str, float], child: dict) -> dict[str, float]:
    """One run's values at the reference host speed: timings divided, and
    rates multiplied, by the mean of the run's two calibrations over
    CAL_REF_S."""
    factor = (child["cal_before_s"] + child["cal_after_s"]) / (2 * speed.CAL_REF_S)
    out = dict(raw)
    for name in ("run_s", "setup_s"):
        out[name] = raw[name] / factor
    for name in STAGE_RATES:
        out[name] = raw[name] * factor
    return out


def run_context(workload, seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "child_thread_env": THREAD_ENV,
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
    }


def stage_metrics(spans: list[dict], child: dict) -> dict[str, float]:
    """End-to-end metrics of one untraced run from its four stage spans."""
    first = {}
    for s in spans:
        first.setdefault(s["name"], s)
    load, train, ev = first["graph.load"], first["embed.train"], first["eval.evaluate"]
    return {
        "run_s": child["run_end"] - child["run_start"],
        "setup_s": load["end"] - child["spawned_at"] - child["cal_wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "train_triples_per_s": train["triples"] * train["epochs"] / (train["end"] - train["start"]),
        "eval_queries_per_s": ev["queries"] / (ev["end"] - ev["start"]),
    }


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest whole percentile with at least ten samples beyond it
    (the maximum when there are too few samples for any)."""
    q = int(100 * (1 - 10 / len(values)))
    if q < 1:
        return "max", max(values)
    return f"p{q}", float(np.percentile(values, q))


def spawn(ini: Path, hook_set: str, spans_out: Path) -> tuple[dict | None, list[dict], str]:
    """Run child.py once; returns (its summary, its spans, error or "")."""
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    script = str(BENCH_DIR / "child.py")
    try:
        proc = subprocess.run(
            [sys.executable, script, str(ini), repr(perf_counter()), hook_set, str(spans_out)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, [], f"child timed out after {CHILD_TIMEOUT_S:g} s"
    if proc.returncode != 0:
        return None, [], f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    try:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = [json.loads(line) for line in spans_out.read_text().splitlines()]
    except (ValueError, IndexError, OSError) as exc:
        return None, [], f"unreadable child output: {exc}"
    return child, spans, ""


def check_run(out_dir: Path, data, metrics: dict[str, float],
              reranked: dict[str, list[str]]) -> tuple[list[str], str | None]:
    """Every output check on one finished run; returns (failures, digest).

    Adds the run's ``filtered_mrr`` to ``metrics``.  The re-rank reads only
    the model's arrays and norm, ``filtered/`` and ``ranks.tsv``, so its
    verdict is a function of those: ``reranked`` keeps each verdict under a
    hash of them, and a run that matches an earlier one gets its verdict
    without a second brute-force pass.
    """
    try:
        metrics["filtered_mrr"] = checks.read_metrics(out_dir)["mrr"]
        problems = checks.check_metrics(metrics)
        problems += checks.check_stats(out_dir, data.stats)
        problems += checks.check_queries(out_dir)
        digest = checks.artifact_digest(out_dir)
        norm = json.loads((out_dir / "model" / "model.meta.json").read_text())["norm"]
        key = hashlib.sha256(f"{digest} {norm} ".encode()
                             + (out_dir / "ranks.tsv").read_bytes()).hexdigest()
        if key not in reranked:
            reranked[key] = checks.rerank(out_dir)
        return problems + reranked[key], digest
    except (KeyError, ValueError, IndexError, OSError) as exc:
        return [f"check could not run: {type(exc).__name__}: {exc}"], None


def main() -> int:
    ap = argparse.ArgumentParser(description="tkgkit pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tkgkit" / "pipeline.py").is_file():
        print(f"no tkgkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    context = run_context(wl, args.seed)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref_digest = refs.get("digests", {}).get(wl.name, {}).get(str(args.seed))

    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = gen.generate(wl.shape, args.seed, wl.scale, wl.test)
    gen.write(data, work / "data")
    print(f"workload {wl.name} seed {args.seed}: {gen.format_stats(data.stats)}")
    # compile tkgkit's bytecode once, so the first timed run does not pay for it
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import tkgkit.pipeline"], cwd=ROOT, check=True, timeout=60)

    samples: list[dict[str, float]] = []
    raw_samples: list[dict[str, float]] = []
    reranked: dict[str, list[str]] = {}
    traced: list[tuple[dict, dict, dict]] = []
    traced_run_s: list[float] = []
    digests: set[str] = set()
    failures: list[str] = []
    missing: set[str] = set()
    durations: list[float] = []
    attempted = 0
    t0 = perf_counter()
    stop_starting = max(args.seconds, STOP_STARTING_S)
    while attempted == 0 or (perf_counter() - t0 < stop_starting and (
        attempted < MIN_RUNS or perf_counter() - t0 + statistics.median(durations) <= args.seconds
    )):
        # the traced run alternates untraced and traced runs, so its
        # overhead compares against untraced runs made at the same time
        hook_set = "layers" if args.trace and attempted % 2 == 1 else "stages"
        out_dir = work / f"run-{attempted}"
        ini = work / f"run-{attempted}.ini"
        ini.write_text(wl.ini(work / "data", data.fmt, out_dir), encoding="utf-8")
        started = perf_counter()
        child, spans, err = spawn(ini, hook_set, work / f"spans-{attempted}.jsonl")
        durations.append(perf_counter() - started)
        attempted += 1
        problems = [err] if err else []
        run_metrics: dict[str, float] = {}
        if child is not None:
            missing.update(child["missing"])
            try:
                if hook_set == "stages":
                    run_metrics = stage_metrics(spans, child)
            except (KeyError, ZeroDivisionError) as exc:
                problems.append(f"stage timers incomplete: {type(exc).__name__}: {exc}")
            more, digest = check_run(out_dir, data, run_metrics, reranked)
            problems += more
            if digest is not None:
                digests.add(digest)
                if ref_digest is not None and digest != ref_digest:
                    problems.append(f"artifact digest {digest[:16]} != reference {ref_digest[:16]}")
                if len(digests) > 1:
                    problems.append("artifact digest differs between runs of the same input")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failures.append(f"run {attempted - 1}: " + "; ".join(problems))
        elif hook_set == "stages":
            run_metrics.update({k: child[k] for k in ("cal_before_s", "cal_after_s")})
            raw_samples.append(run_metrics)
            samples.append(scaled(run_metrics, child))
        else:
            traced.append(layers.analyse(spans))
            traced[-1][0]["eval.filtered_mrr"] = run_metrics["filtered_mrr"]
            traced_run_s.append(child["run_end"] - child["run_start"])

    failed = len(failures)
    for f in failures:
        print("FAILED", f)
    if missing:
        print("missing hooks:", ", ".join(sorted(missing)))
    print(f"runs: {attempted} attempted, {failed} failed, failed_share {failed / attempted:.3f}")
    if ref_digest is None:
        digest_note = "no reference for this seed"
    else:
        digest_note = "matches reference" if digests == {ref_digest} else "DIFFERS from reference"
    print(f"artifact digest: {', '.join(sorted(d[:16] for d in digests))} ({digest_note})")

    metrics: dict[str, dict] = {}
    report: dict[str, dict] = {}
    if samples:
        print(f"{'filtered_mrr':<22} {samples[0]['filtered_mrr']:.6g} (deterministic for the seed)")
        cals = [s[k] for s in raw_samples for k in ("cal_before_s", "cal_after_s")]
        print(f"{'calibration':<22} median {statistics.median(cals):.6g} s, reference "
              f"{speed.CAL_REF_S:g} s; figures below are scaled to the reference")
        rows = [(name, unit, better) for name, unit, better, _ in END_TO_END]
        rows += [(name, "1/s", "higher") for name in STAGE_RATES]
        for name, unit, better in rows:
            values = [s[name] for s in samples]
            value = statistics.median(values)
            best = min(values) if better == "lower" else max(values)
            label, high = high_percentile(values)
            unscaled = statistics.median(s[name] for s in raw_samples)
            report[name] = {"value": value, "best": best, label: high,
                            "n": len(values), "unit": unit, "unscaled_median": unscaled}
            print(f"{name:<22} median {value:.6g} {unit:<4}  best {best:.6g}  {label} {high:.6g}"
                  f"  n={len(values)}  (unscaled median {unscaled:.6g})")
            if not args.trace and name not in STAGE_RATES:
                metrics[name] = {"value": value, "unit": unit}
    if args.trace and traced and samples:
        layer_values, shape_failures = layers.summarise(traced, wl)
        for f in shape_failures:
            print("SHAPE CHECK:", f)
        print("shape check:", "holds" if not shape_failures else "BROKEN")
        untraced = statistics.median(s["run_s"] for s in raw_samples)
        layer_values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_run_s) / untraced - 1.0)
        layer_values["trace.missing_hooks"] = len(missing)
        for name, layer_name in STAGE_RATES.items():
            layer_values[layer_name] = report[name]["value"]
        for name, unit, _ in layers.PER_LAYER:
            metrics[name] = {"value": layer_values[name], "unit": unit}
            print(f"{name:<30} {layer_values[name]:.6g} {unit}")

    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps({
        "context": context,
        "generator": data.stats,
        "digests": sorted(digests),
        "failures": failures,
        "missing_hooks": sorted(missing),
        "calibration_ref_s": speed.CAL_REF_S,
        "samples": samples,
        "raw_samples": raw_samples,
        "end_to_end": report,
        "result": result,
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
