"""Spans around calls into tkgkit, installed by wrapping module attributes.

Nothing under ``src/`` knows about this file.  A :class:`Tracer` replaces a
function or method attribute with a wrapper that records one span per call:
name, start, end, the span that was open when the call began (its parent)
and a few counts taken from the arguments or the result.  A hook point that
no longer exists is listed in ``Tracer.missing`` instead of failing the run.

Two hook sets exist.  ``STAGES`` times only the four whole stages the
end-to-end metrics need (load, transform, train, evaluate); it adds four
wrapped calls per run.  ``LAYERS`` adds every module boundary the per-layer
metrics need, including per-step and per-query calls.
"""
from __future__ import annotations

import functools
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np


def _tree_bytes(path) -> int:
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


def _written(index: int):
    def info(args, kwargs, result):
        return {"bytes": _tree_bytes(args[index])}
    return info


def _loaded(args, kwargs, result):
    return {"facts": len(result.facts)}


def _transformed(args, kwargs, result):
    rep = result.report
    return {
        "splits_applied": rep.splits_applied,
        "points_skipped": rep.skipped_points,
        "predicates_out": rep.predicates_after,
        "facts_out": rep.facts_after,
    }


def _signature(args, kwargs, result):
    return {"cells": int(result.matrix.size)}


def _segmented(args, kwargs, result):
    return {"samples": result.num_samples, "change_points": len(result.change_points)}


def _filtered(args, kwargs, result):
    return {
        "triples_in": sum(len(x) for x in args[:3]),
        "triples_out": sum(len(x) for x in result),
    }


def _trained(args, kwargs, result):
    return {"triples": len(args[0]), "epochs": args[3].epochs}


def _evaluated(args, kwargs, result):
    return {"queries": result[0].query_count}


def _negatives(args, kwargs):
    # batch_gradients(entity, predicate, pos, neg_entities, corrupt_object, cfg)
    pos, neg, corrupt = args[2], args[3], args[4]
    replaced = np.where(corrupt, pos[:, 2:3], pos[:, 0:1])
    return {"negatives": int(neg.size), "clashes": int((neg == replaced).sum())}


# (module, attribute path, span name, info from (args, kwargs, result),
#  info from (args, kwargs) taken before the call)
STAGES = (
    ("tkgkit.pipeline", "load_dataset", "graph.load", _loaded, None),
    ("tkgkit.pipeline", "apply_transform", "transform.apply", _transformed, None),
    ("tkgkit.pipeline", "train", "embed.train", _trained, None),
    ("tkgkit.pipeline", "evaluate", "eval.evaluate", _evaluated, None),
)

LAYERS = STAGES + (
    ("tkgkit.pipeline", "run_pipeline", "pipeline.run", None, None),
    ("tkgkit.graph", "TemporalGraph.__post_init__", "graph.validate", None, None),
    ("tkgkit.pipeline", "strip_temporal", "graph.strip", None, None),
    ("tkgkit.transform", "signature_series", "proximity.signature", _signature, None),
    ("tkgkit.transform", "bottom_up", "cpd.bottom_up", _segmented, None),
    ("tkgkit.pipeline", "audit", "leakage.audit", None, None),
    ("tkgkit.pipeline", "apply_filter", "leakage.filter", _filtered, None),
    ("tkgkit.embed", "batch_gradients", "embed.grad", None, _negatives),
    ("tkgkit.embed", "Adam.step", "embed.adam", None, None),
    ("tkgkit.embed", "EmbeddingModel.score_objects", "eval.score", None, None),
    ("tkgkit.embed", "EmbeddingModel.score_subjects", "eval.score", None, None),
    ("tkgkit.pipeline", "save_dataset", "pipeline.write", _written(1), None),
    ("tkgkit.pipeline", "save_lineage", "pipeline.write", _written(2), None),
    ("tkgkit.pipeline", "save_triples", "pipeline.write", _written(3), None),
    ("tkgkit.pipeline", "save_model", "pipeline.write", _written(1), None),
)


class Tracer:
    """Records spans in memory; ``spans`` is a list of plain dicts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        # ids of the spans open right now, innermost last
        self.stack: list[int] = []

    def install(self, hooks) -> None:
        for module, attr, name, after, before in hooks:
            self._wrap(module, attr, name, after, before)

    def _wrap(self, module: str, attr: str, name: str, after, before) -> None:
        where = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(where)
            return
        if not callable(fn):
            self.missing.append(where)
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": stack[-1] if stack else None,
            }
            if before:
                tracer._annotate(span, before, args, kwargs)
            tracer.spans.append(span)
            stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if after:
                tracer._annotate(span, after, args, kwargs, result)
            return result

        setattr(owner, leaf, wrapper)

    @staticmethod
    def _annotate(span: dict, info, *call) -> None:
        # a changed call signature must not fail the traced run; the span
        # keeps its timing and records why its counts are absent
        try:
            span.update(info(*call))
        except Exception as exc:  # noqa: BLE001 - reported, never raised
            span["info_error"] = f"{type(exc).__name__}: {exc}"
