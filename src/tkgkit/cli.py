"""Command line entry points.

`run` drives the whole config-driven pipeline, optionally sweeping
parameter grids into one output directory per grid point.  `transform`,
`filter`, `train` and `eval` each call one stage of it and write the same
bytes; load-stats, audit and segment-debug print what they compute.  Exit
codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import itertools
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cpd import bottom_up, normalize_rows
from .embed import NumericError, export_embeddings, load_model
from .graph import (
    DataError,
    dataset_stats,
    format_stats,
    load_dataset,
    load_triples,
    strip_temporal,
)
from .leakage import audit, audit_csv, format_audit
from .pipeline import (
    SCHEMA,
    ConfigError,
    build_config,
    check_cpd,
    evaluate_stage,
    filter_stage,
    load_stage,
    parse_section,
    read_config_file,
    run_pipeline,
    train_config,
    train_stage,
    transform_stage,
)

log = logging.getLogger("tkgkit")


def _flag(p: argparse.ArgumentParser, section: str, key: str, **kwargs) -> None:
    """--key-name for one config key, default and choices from the schema.

    The value stays text; the command parses it with the schema like a
    config file value.
    """
    parse, default = SCHEMA[section][key]
    if isinstance(parse, tuple):
        kwargs["choices"] = parse
    p.add_argument("--" + key.replace("_", "-"), default=default, **kwargs)


def _section(args, section: str) -> dict[str, str]:
    """The raw values of one config section given as flags."""
    return {
        key: str(value)
        for key in SCHEMA[section]
        if (value := getattr(args, key, None)) is not None
    }


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset directory with train/valid/test.txt")
    _flag(p, "dataset", "format", help="5-column interval facts or 4-column event facts")


def _seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override every seed in the run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkgkit",
        description="temporal KG transformations, leakage filtering, embedding and evaluation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-stats", help="print dataset size statistics")
    _dataset_args(p)
    p.set_defaults(func=cmd_load_stats)

    p = sub.add_parser("transform", help="rewrite a dataset and save it with its lineage")
    _dataset_args(p)
    _seed_arg(p)
    _flag(p, "transform", "method", required=True)
    _flag(p, "transform", "grow", help="target predicate growth factor for splits")
    _flag(p, "transform", "shrink", help="target shrink factor for merge (inf = full)")
    _flag(p, "transform", "epsilon", help="detection stop threshold for split_cpd")
    for key in ("score", "min_size", "jump"):
        _flag(p, "transform", key)
    _flag(p, "transform", "gamma", help="fixed RBF bandwidth (default: median heuristic)")
    _flag(p, "transform", "scope")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("audit", help="report duplicates and train leakage after stripping")
    _dataset_args(p)
    p.add_argument("--csv", help="also write the audit as CSV to this path")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("filter", help="strip temporal scope and filter leakage")
    _dataset_args(p)
    _flag(p, "filter", "mode", required=True)
    p.add_argument("--out", required=True, help="output directory for the triple files")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", help="train embeddings on stripped triples")
    p.add_argument("--triples", required=True, help="directory with 3-column train/valid/test.txt")
    _seed_arg(p)
    for key in ("dimension", "epochs", "learning_rate", "batch_size", "negative_samples",
                "negative_mode", "margin", "temperature", "norm"):
        _flag(p, "train", key)
    p.add_argument("--no-adversarial", dest="adversarial", action="store_const",
                   const="false", help="uniform negative weights")
    p.add_argument("--export", action="store_true", help="also write label/vector TSV dumps")
    p.add_argument("--out", required=True, help="output directory for the checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered link-prediction metrics for a checkpoint")
    p.add_argument("--triples", required=True, help="directory with 3-column train/valid/test.txt")
    p.add_argument("--model", required=True, help="checkpoint directory")
    _flag(p, "eval", "tie_rule")
    _flag(p, "eval", "hits", help="comma-separated k values")
    p.add_argument("--ranks-out", help="write per-query ranks to this TSV path")
    p.add_argument("--csv", help="also write metrics as CSV to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("segment-debug", help="run change-point detection on a CSV signal")
    p.add_argument("--signal", required=True, help="CSV file, one sample per row")
    _flag(p, "transform", "epsilon", required=True)
    for key in ("min_size", "jump", "gamma"):
        _flag(p, "transform", key)
    p.add_argument("--normalize", action="store_true", help="unit-normalize rows first")
    p.set_defaults(func=cmd_segment_debug)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, help="INI config path")
    _seed_arg(p)
    p.add_argument("--out", help="override [output] dir")
    p.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="SECTION.KEY=V1,V2,...",
        help="grid axis; repeat for a cartesian product, one output dir per point",
    )
    p.set_defaults(func=cmd_run)
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_load_stats(args) -> int:
    g = load_dataset(args.data, args.format)
    print(format_stats(dataset_stats(g)), end="")
    return 0


def cmd_transform(args) -> int:
    cfg = build_config({
        "dataset": {"path": args.data, "format": args.format},
        "transform": _section(args, "transform"),
        "output": {"dir": args.out},
    })
    report = transform_stage(load_stage(cfg), cfg, cfg.output.dir, cfg.output.dir).report
    print(
        f"predicates {report.predicates_before} -> {report.predicates_after}, "
        f"facts {report.facts_before} -> {report.facts_after}"
    )
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    g = load_dataset(args.data, args.format)
    triples = strip_temporal(g)
    report = audit(triples["train"], triples["valid"], triples["test"])
    print(format_audit(report), end="")
    if args.csv:
        Path(args.csv).write_text(audit_csv(report), encoding="utf-8")
    return 0


def cmd_filter(args) -> int:
    triples, filtered = filter_stage(load_dataset(args.data, args.format), args.mode, args.out)
    for name, rows in triples.items():
        print(f"{name}: {len(rows)} -> {len(filtered[name])}")
    return 0


def cmd_train(args) -> int:
    cfg = train_config(_section(args, "train"))
    triples, entity_labels, predicate_labels = load_triples(args.triples)
    history: list[float] = []
    model = train_stage(triples, len(entity_labels), len(predicate_labels), cfg, args.out,
                        history=history)
    if args.export:
        export_embeddings(model, entity_labels, predicate_labels, args.out)
    if history:
        print(f"final epoch loss {history[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    ev = parse_section("eval", _section(args, "eval"))
    triples, entity_labels, predicate_labels = load_triples(args.triples)
    model = load_model(args.model)
    if (model.num_entities, model.num_predicates) != (len(entity_labels), len(predicate_labels)):
        raise DataError(
            f"model has {model.num_entities} entities and {model.num_predicates} predicates,"
            f" dataset {len(entity_labels)} and {len(predicate_labels)}"
        )
    report = evaluate_stage(model, triples, ev["tie_rule"], ev["hits"], args.csv, args.ranks_out)
    print(report.format(), end="")
    return 0


def cmd_segment_debug(args) -> int:
    tf = parse_section("transform", _section(args, "transform"))
    check_cpd(tf)
    try:
        signal = np.loadtxt(args.signal, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read signal {args.signal}: {exc}") from exc
    if signal.size == 0:
        raise DataError(f"signal {args.signal} is empty")
    if not np.isfinite(signal).all():
        raise DataError(f"signal {args.signal} has non-finite values")
    if args.normalize:
        signal = normalize_rows(signal)
    try:
        seg = bottom_up(
            signal, tf["epsilon"], min_size=tf["min_size"], jump=tf["jump"], gamma=tf["gamma"]
        )
    except ValueError as exc:
        # input and settings are checked above, so what is left is overflow
        raise NumericError(f"cannot segment {args.signal}: {exc}") from exc
    print("breakpoints: " + " ".join(str(k) for k in seg.breakpoints))
    print(f"total_cost: {seg.total_cost:.6f}")
    print(f"gamma: {seg.gamma:.6g}")
    for w in seg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _parse_sweep(specs: list[str]) -> list[list[tuple[str, str, str]]]:
    """One axis per spec, each value stripped and parsed by the schema.  An
    unknown section or key, an unparseable value, a value repeated on one
    axis once parsed (``4,04``), or a key on two axes is a ConfigError: two
    grid points would share an output directory, or run one setting under
    two names."""
    axes = []
    for spec in specs:
        head, sep, values = spec.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"--sweep expects SECTION.KEY=V1,V2,... got {spec!r}")
        sec, _, key = head.partition(".")
        sec, key = sec.strip(), key.strip()
        if sec not in SCHEMA:
            raise ConfigError(f"--sweep references unknown section [{sec}]")
        vals = [v for v in map(str.strip, values.split(",")) if v]
        if not vals:
            raise ConfigError(f"--sweep {spec!r} lists no values")
        parsed = [parse_section(sec, {key: v})[key] for v in vals]
        if len(set(parsed)) < len(parsed):
            raise ConfigError(f"--sweep {spec!r} repeats a value")
        if any(axis[0][:2] == (sec, key) for axis in axes):
            raise ConfigError(f"--sweep names {sec}.{key} on two axes")
        axes.append([(sec, key, v) for v in vals])
    return axes


def cmd_run(args) -> int:
    raw = read_config_file(args.config)
    if args.out:
        raw["output"]["dir"] = args.out
    if args.seed is not None:
        raw["train"]["seed"] = str(args.seed)
        raw["transform"]["seed"] = str(args.seed)

    runs = []
    # with no axes, one point: the config as given
    for combo in itertools.product(*_parse_sweep(args.sweep)):
        point = {sec: dict(vals) for sec, vals in raw.items()}
        for sec, key, value in combo:
            point[sec][key] = value
        cfg = build_config(point)
        if combo:
            cfg.output.dir /= "_".join(f"{key}={value}" for _, key, value in combo)
        runs.append(cfg)
    # every grid point is validated before the first one runs
    for cfg in runs:
        report = run_pipeline(cfg)
        print(f"# {cfg.output.dir}")
        print(report.format(), end="")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
