"""Per-layer metrics and the workload-shape check, computed from spans.

A span's self time is its duration minus the time covered by its child
spans; a module's self time is the sum over its spans (the module is the
part of the span name before the dot).
"""
from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

MODULES = ("graph", "transform", "proximity", "cpd", "leakage", "embed", "eval", "pipeline")

# (name, unit, better); order is the order of BENCHMARK.json and the report
PER_LAYER = (
    ("graph.load_s", "s", "lower"),
    ("graph.facts_loaded", "count", "higher"),
    ("graph.validate_s", "s", "lower"),
    ("graph.strip_s", "s", "lower"),
    ("transform.apply_s", "s", "lower"),
    ("transform.self_s", "s", "lower"),
    ("transform.splits_applied", "count", "lower"),
    ("transform.points_skipped", "count", "lower"),
    ("transform.split_yield", "ratio", "higher"),
    ("transform.predicates_out", "count", "lower"),
    ("transform.facts_out", "count", "lower"),
    ("proximity.signature_s", "s", "lower"),
    ("proximity.signature_calls", "count", "lower"),
    ("proximity.signature_cells", "count", "lower"),
    ("cpd.bottom_up_s", "s", "lower"),
    ("cpd.bottom_up_calls", "count", "lower"),
    ("cpd.samples", "count", "lower"),
    ("cpd.change_points", "count", "lower"),
    ("leakage.audit_s", "s", "lower"),
    ("leakage.filter_s", "s", "lower"),
    ("leakage.triples_in", "count", "lower"),
    ("leakage.triples_out", "count", "lower"),
    ("embed.train_s", "s", "lower"),
    ("embed.train_triples_per_s", "1/s", "higher"),
    ("embed.steps", "count", "lower"),
    ("embed.step_ms_p50", "ms", "lower"),
    ("embed.step_ms_p90", "ms", "lower"),
    ("embed.grad_s", "s", "lower"),
    ("embed.adam_s", "s", "lower"),
    ("embed.loop_self_s", "s", "lower"),
    ("embed.negative_clash_ratio", "ratio", "lower"),
    ("eval.evaluate_s", "s", "lower"),
    ("eval.queries_per_s", "1/s", "higher"),
    ("eval.queries", "count", "lower"),
    ("eval.index_s", "s", "lower"),
    ("eval.score_s", "s", "lower"),
    ("eval.rank_self_s", "s", "lower"),
    ("eval.query_ms_p50", "ms", "lower"),
    ("eval.query_ms_p90", "ms", "lower"),
    ("eval.filtered_mrr", "ratio", "higher"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.bytes_written", "bytes", "lower"),
) + tuple((f"{m}.module_self_s", "s", "lower") for m in MODULES) + (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.missing_hooks", "count", "lower"),
    ("shape.ok", "bool", "higher"),
)

# metrics pooled over every traced run before taking the percentile
POOLED = {
    "embed.step_ms_p50": ("step_gaps", 50),
    "embed.step_ms_p90": ("step_gaps", 90),
    "eval.query_ms_p50": ("query_gaps", 50),
    "eval.query_ms_p90": ("query_gaps", 90),
}

MOST_SHARE = 0.5
MINOR_SHARE = 0.2


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _gaps_ms(starts: list[float]) -> list[float]:
    return [1000.0 * (b - a) for a, b in zip(starts, starts[1:])]


def analyse(spans: list[dict]) -> tuple[dict[str, float], dict[str, list[float]], dict]:
    """One traced run -> (metrics, pooled samples, module self times)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _dur(s)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        s["self"] = _dur(s) - child_time[s["id"]]
        by_name[s["name"]].append(s)

    def total(name: str, key: str = "dur") -> float:
        return sum(_dur(s) if key == "dur" else s.get(key, 0) for s in by_name[name])

    def self_of(name: str) -> float:
        return sum(s["self"] for s in by_name[name])

    module_self = {m: 0.0 for m in MODULES}
    for name, group in by_name.items():
        module_self[name.split(".")[0]] += sum(s["self"] for s in group)
    transform_children = {m: 0.0 for m in MODULES}
    apply_ids = {s["id"] for s in by_name["transform.apply"]}
    for s in spans:
        if s["parent"] in apply_ids:
            transform_children[s["name"].split(".")[0]] += _dur(s)

    grads = by_name["embed.grad"]
    scores = by_name["eval.score"]
    evaluate = by_name["eval.evaluate"]
    index_s = (scores[0]["start"] - evaluate[0]["start"]) if scores and evaluate else 0.0
    applied = total("transform.apply", "splits_applied")
    skipped = total("transform.apply", "points_skipped")
    negatives = total("embed.grad", "negatives")
    m = {
        "graph.load_s": total("graph.load"),
        "graph.facts_loaded": total("graph.load", "facts"),
        "graph.validate_s": total("graph.validate"),
        "graph.strip_s": total("graph.strip"),
        "transform.apply_s": total("transform.apply"),
        "transform.self_s": self_of("transform.apply"),
        "transform.splits_applied": applied,
        "transform.points_skipped": skipped,
        "transform.split_yield": applied / (applied + skipped) if applied + skipped else 0.0,
        "transform.predicates_out": total("transform.apply", "predicates_out"),
        "transform.facts_out": total("transform.apply", "facts_out"),
        "proximity.signature_s": total("proximity.signature"),
        "proximity.signature_calls": len(by_name["proximity.signature"]),
        "proximity.signature_cells": total("proximity.signature", "cells"),
        "cpd.bottom_up_s": total("cpd.bottom_up"),
        "cpd.bottom_up_calls": len(by_name["cpd.bottom_up"]),
        "cpd.samples": total("cpd.bottom_up", "samples"),
        "cpd.change_points": total("cpd.bottom_up", "change_points"),
        "leakage.audit_s": total("leakage.audit"),
        "leakage.filter_s": total("leakage.filter"),
        "leakage.triples_in": total("leakage.filter", "triples_in"),
        "leakage.triples_out": total("leakage.filter", "triples_out"),
        "embed.train_s": total("embed.train"),
        "embed.steps": len(grads),
        "embed.grad_s": total("embed.grad"),
        "embed.adam_s": total("embed.adam"),
        "embed.loop_self_s": self_of("embed.train"),
        "embed.negative_clash_ratio":
            total("embed.grad", "clashes") / negatives if negatives else 0.0,
        "eval.evaluate_s": total("eval.evaluate"),
        "eval.queries": total("eval.evaluate", "queries"),
        "eval.index_s": index_s,
        "eval.score_s": total("eval.score"),
        "eval.rank_self_s": self_of("eval.evaluate") - index_s,
        "pipeline.run_s": total("pipeline.run"),
        "pipeline.self_s": self_of("pipeline.run"),
        "pipeline.write_s": total("pipeline.write"),
        "pipeline.bytes_written": total("pipeline.write", "bytes"),
    }
    for mod, t in module_self.items():
        m[f"{mod}.module_self_s"] = t
    pooled = {
        "step_gaps": _gaps_ms([s["start"] for s in grads]),
        "query_gaps": _gaps_ms([s["start"] for s in scores]),
    }
    shares = {"module_self": module_self, "transform_children": transform_children,
              "run_s": m["pipeline.run_s"]}
    return m, pooled, shares


def summarise(traced: list[tuple[dict, dict, dict]], workload) -> tuple[dict, list[str]]:
    """Per-layer values over several traced runs, and the shape-check failures.

    Counts and times are medians over the runs; the step and query
    percentiles pool every run's samples; the shape check sums the runs.
    """
    runs = [m for m, _, _ in traced]
    values = {name: statistics.median(m[name] for m in runs) for name in runs[0]}
    for metric, (key, q) in POOLED.items():
        pooled = [v for _, p, _ in traced for v in p[key]]
        values[metric] = float(np.percentile(pooled, q)) if pooled else 0.0
    shares = {"module_self": dict.fromkeys(MODULES, 0.0),
              "transform_children": dict.fromkeys(MODULES, 0.0), "run_s": 0.0}
    for _, _, sh in traced:
        shares["run_s"] += sh["run_s"]
        for key in ("module_self", "transform_children"):
            for mod, t in sh[key].items():
                shares[key][mod] += t
    failures = shape_check(workload, shares)
    values["shape.ok"] = 0 if failures else 1
    return values, failures


def shape_check(workload, shares: dict) -> list[str]:
    """Failures of the property the workload was chosen for (empty: holds)."""
    mod, run = shares["module_self"], shares["run_s"]
    out = []
    if workload.most:
        share = sum(mod[m] for m in workload.most) / run
        if share <= MOST_SHARE:
            out.append(f"{'+'.join(workload.most)} self time is {share:.0%} of the run, "
                       f"not most of it")
    if workload.top_transform_child:
        kids = shares["transform_children"]
        top = max(kids, key=kids.get)
        if top != workload.top_transform_child:
            out.append(f"largest transform child is {top} ({kids[top]:.3f} s), not "
                       f"{workload.top_transform_child} ({kids[workload.top_transform_child]:.3f} s)")
    for m in workload.minor:
        if mod[m] / run >= MINOR_SHARE:
            out.append(f"{m} self time is {mod[m] / run:.0%} of the run, not a minor share")
    return out
