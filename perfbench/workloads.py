"""The benchmark's workloads: generated data shape plus a pipeline config.

Each workload stresses different tkgkit modules; ``why`` says which and is
copied into BENCHMARK.json.  Sizes are chosen so that one pipeline run takes
one to two seconds on a 2-core machine and a timed run holds 10-20 of them,
enough for a steady median.  ``wd12k-embed`` keeps the full Wikidata12k
shape, because the entity count sets the cost of every Adam step and of every
ranked query; it runs one epoch in large batches on a small test split
instead.  The CPD workloads scale the
entity and fact counts down and keep the predicate and timestamp counts,
which set the transform and CPD work.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    scale: float
    # test split size; None keeps the scaled reference size
    test: int | None
    config: dict[str, dict[str, str]] = field(default_factory=dict)
    # the property the workload was chosen for, checked on every traced run:
    # these modules' self time together is most of the run ...
    most: tuple[str, ...] = ()
    # ... this module is the largest child of transform.apply ...
    top_transform_child: str | None = None
    # ... and each of these is a minor share of the run
    minor: tuple[str, ...] = ()

    def ini(self, data_dir, fmt: str, out_dir) -> str:
        sections = {k: dict(v) for k, v in self.config.items()}
        sections["dataset"] = {"path": str(data_dir), "format": fmt}
        sections["eval"] = {"tie_rule": "mean", "hits": "1,3,10", "dump_ranks": "true"}
        sections["output"] = {"dir": str(out_dir)}
        lines = []
        for sec, vals in sections.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in vals.items())
            lines.append("")
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wd12k-embed",
            why="Full Wikidata12k shape (12.6k entities), no transform, 1 epoch at d=100, 24 "
                "test facts: dense Adam steps, gradients and per-query scoring over all entities "
                "do nearly all the work",
            shape="wikidata12k",
            scale=1.0,
            test=24,
            config={
                "transform": {"method": "none"},
                "filter": {"mode": "both"},
                "train": {"dimension": "100", "epochs": "1", "learning_rate": "0.01",
                          "batch_size": "2000", "negative_samples": "500", "seed": "0"},
            },
            most=("embed", "eval"),
        ),
        Workload(
            name="wd12k-cpd-graph",
            why="Wikidata12k shape, split_cpd with pref scores over the whole graph: proximity "
                "signatures dominate and spanning intervals make split_once copy facts",
            shape="wikidata12k",
            scale=0.1,
            test=250,
            config={
                "transform": {"method": "split_cpd", "score": "pref", "epsilon": "2.5",
                              "scope": "graph"},
                "filter": {"mode": "both"},
                "train": {"dimension": "10", "epochs": "1", "learning_rate": "0.05",
                          "batch_size": "500", "negative_samples": "500", "seed": "0"},
            },
            top_transform_child="proximity",
            minor=("embed", "eval"),
        ),
        Workload(
            name="icews14-cpd-adar",
            why="ICEWS14 shape, 230 predicates over 365 ISO-date stamps, split_cpd with adar "
                "per predicate: the 6 hub predicates reach CPD, whose bottom_up is half the run, "
                "and load reads the most lines",
            shape="icews14",
            scale=0.25,
            test=1200,
            config={
                "transform": {"method": "split_cpd", "score": "adar", "epsilon": "25",
                              "scope": "predicate"},
                "filter": {"mode": "both"},
                "train": {"dimension": "10", "epochs": "1", "learning_rate": "0.05",
                          "batch_size": "500", "negative_samples": "500", "seed": "0"},
            },
            top_transform_child="cpd",
            minor=("embed", "eval"),
        ),
    )
}
