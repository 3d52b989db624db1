"""Config-driven experiment pipeline: load, transform, filter, train, eval.

Configuration is an INI file with sections [dataset], [transform],
[filter], [train], [eval] and [output]; any key can be overridden through
environment variables named TKGKIT_<SECTION>_<KEY>.  SCHEMA lists every
key once, and a built config reads each setting under that key as
``cfg.<section>.<key>``.  ``run_pipeline`` is five stages in order, each of
which computes its step and writes that step's artifacts into the
directories it is given: ``load_stage``, ``transform_stage`` (dataset,
lineage, report), ``filter_stage`` (triples), ``train_stage`` (model) and
``evaluate_stage`` (metrics CSV, ranks).  The CLI subcommands call the
same stages.  Around them a run writes its own stats, audit, loss history,
metrics and a manifest carrying the config hash, seed and package version,
all into one output directory; it is byte-reproducible for a fixed config.
The manifest is written last and removed when a run starts, so a directory
holds one only after a complete run.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cpd import check_settings
from .embed import TRAIN_KEYS, TrainConfig, parse_bool, parse_float, save_model, train
from .eval import DEFAULT_HITS, TIE_RULES, evaluate, ranks_tsv
from .graph import (
    DATA_FORMATS,
    TemporalGraph,
    dataset_stats,
    format_stats,
    load_dataset,
    save_dataset,
    save_triples,
    strip_temporal,
)
from .leakage import FILTER_MODES, apply_filter, audit, audit_csv, format_audit
from .proximity import PROXIMITY_MEASURES, SIGNATURE_SCOPES
from .transform import (
    TransformResult,
    identity,
    merge,
    random_split,
    save_lineage,
    split_cpd,
    split_parameterized,
    timestamp,
)

logger = logging.getLogger(__name__)

# Each transform method and its call on a graph and a PipelineConfig.
TRANSFORMS = {
    "none": lambda g, cfg: identity(g),
    "timestamp": lambda g, cfg: timestamp(g),
    "split_time": lambda g, cfg: split_parameterized(g, "time", cfg.transform.grow),
    "split_count": lambda g, cfg: split_parameterized(g, "count", cfg.transform.grow),
    "split_cpd": lambda g, cfg: split_cpd(
        g, cfg.transform.score, epsilon=cfg.transform.epsilon, min_size=cfg.transform.min_size,
        jump=cfg.transform.jump, gamma=cfg.transform.gamma, scope=cfg.transform.scope,
    ),
    "merge": lambda g, cfg: merge(g, cfg.transform.shrink),
    "random": lambda g, cfg: random_split(g, cfg.transform.grow, seed=cfg.transform.seed),
}

ENV_PREFIX = "TKGKIT_"


def _hits(text: str) -> tuple[int, ...]:
    ks = tuple(int(k) for k in text.split(","))
    if min(ks) < 1:
        raise ValueError("hits must be >= 1")
    return ks


# The config schema, one table per section: key -> (parser, default as
# written in a config file, or None when the key has no default).  A parser
# is a function of the text or a tuple of the allowed values.  This is the
# only list of keys and defaults for config files, TKGKIT_* variables and
# the CLI flags.
SCHEMA: dict[str, dict[str, tuple]] = {
    "dataset": {"path": (Path, None), "format": (DATA_FORMATS, "valid_time")},
    "transform": {
        "method": (tuple(TRANSFORMS), "none"),
        "grow": (parse_float, None),
        "shrink": (parse_float, None),
        "epsilon": (parse_float, None),
        "score": (PROXIMITY_MEASURES, "pref"),
        "min_size": (int, str(split_cpd.__kwdefaults__["min_size"])),
        "jump": (int, str(split_cpd.__kwdefaults__["jump"])),
        "gamma": (parse_float, None),
        "scope": (SIGNATURE_SCOPES, "predicate"),
        "seed": (int, "0"),
    },
    "filter": {"mode": (FILTER_MODES, "inter")},
    "train": TRAIN_KEYS,
    "eval": {
        "tie_rule": (TIE_RULES, "optimistic"),
        "hits": (_hits, ",".join(map(str, DEFAULT_HITS))),
        "dump_ranks": (parse_bool, "false"),
    },
    "output": {"dir": (Path, None)},
}
# each section's keys that have a default, with it as written in a config file
DEFAULTS = {sec: {key: default for key, (_, default) in table.items() if default is not None}
            for sec, table in SCHEMA.items()}


class ConfigError(Exception):
    """Missing, unknown, out-of-range or unparseable configuration."""


@dataclass
class PipelineConfig:
    """A validated run: each section but [train] is a namespace of its
    parse_section values, so a setting reads as ``cfg.<section>.<key>``."""

    dataset: SimpleNamespace
    transform: SimpleNamespace
    filter: SimpleNamespace
    train: TrainConfig
    eval: SimpleNamespace
    output: SimpleNamespace
    raw: dict[str, dict[str, str]]


def _check_key(section: str, key: str) -> None:
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key [{section}] {key}")


def read_config_file(path: str | Path, environ=None) -> dict[str, dict[str, str]]:
    """INI file -> nested dict, with defaults and environment overrides.

    A section, key or TKGKIT_* variable the schema does not name is a
    ConfigError.
    """
    # values are literal, as in TKGKIT_* variables: no %-interpolation
    cp = configparser.ConfigParser(interpolation=None)
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    raw = {sec: dict(values) for sec, values in DEFAULTS.items()}
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in cp[sec].items():
            _check_key(sec, key)
            raw[sec][key] = value
    environ = os.environ if environ is None else environ
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        sec, _, key = name[len(ENV_PREFIX):].lower().partition("_")
        if key not in SCHEMA.get(sec, {}):
            raise ConfigError(f"unknown config variable {name}")
        raw[sec][key] = value
    return raw


def config_hash(raw: dict[str, dict[str, str]]) -> str:
    lines = sorted(
        f"{sec}.{key}={value}" for sec, vals in raw.items() for key, value in vals.items()
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def parse_section(section: str, values: dict[str, str]) -> dict:
    """Typed values of one config section.

    Missing keys take the schema's default; keys with no default, missing or
    empty, are None.
    """
    out = {}
    for key in values:
        _check_key(section, key)
    for key, (parse, default) in SCHEMA[section].items():
        text = values.get(key, default)
        if text is None or (text == "" and default is None):
            out[key] = None
        elif isinstance(parse, tuple):
            if text not in parse:
                allowed = ", ".join(parse[:-1]) + " or " + parse[-1]
                raise ConfigError(f"[{section}] {key} must be {allowed}, got {text!r}")
            out[key] = text
        else:
            try:
                out[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {text!r}: {exc}") from exc
    return out


def _validated(section: str, check, *args) -> None:
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def train_config(values: dict[str, str]) -> TrainConfig:
    """Validated TrainConfig from raw [train] values."""
    cfg = TrainConfig(**parse_section("train", values))
    _validated("train", cfg.validate)
    return cfg


def check_cpd(tf: dict) -> None:
    """ConfigError unless parsed [transform] values hold detection settings
    that split_cpd takes."""
    if tf["epsilon"] is None:
        raise ConfigError("[transform] split_cpd needs epsilon")
    _validated("transform", check_settings, tf["epsilon"], tf["min_size"], tf["jump"], tf["gamma"])


def build_config(raw: dict[str, dict[str, str]]) -> PipelineConfig:
    """Validate the raw key-value config into a typed PipelineConfig.

    Every check happens here, before any data is touched.  Each key missing
    from ``raw`` that has a default is filled into it, so the kept config
    records every setting however it was built.
    """
    for sec in raw:
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
    for sec, defaults in DEFAULTS.items():
        raw[sec] = defaults | raw.get(sec, {})
    parsed = {sec: parse_section(sec, raw[sec]) for sec in SCHEMA if sec != "train"}
    ds, tf = parsed["dataset"], parsed["transform"]
    if ds["path"] is None:
        raise ConfigError("[dataset] path is required")
    if not ds["path"].is_dir():
        raise ConfigError(f"[dataset] path {ds['path']} is not a directory")
    if parsed["output"]["dir"] is None:
        raise ConfigError("[output] dir is required")

    method = tf["method"]
    if method in ("split_time", "split_count", "random") and not (tf["grow"] or 0) > 1:
        raise ConfigError(f"[transform] method {method} needs grow > 1")
    if method == "merge" and not (tf["shrink"] or 0) > 1:
        raise ConfigError("[transform] method merge needs shrink > 1 (inf allowed)")
    if tf["seed"] < 0:
        raise ConfigError("[transform] seed must be >= 0")
    if method == "split_cpd":
        check_cpd(tf)
    return PipelineConfig(
        **{sec: SimpleNamespace(**vals) for sec, vals in parsed.items()},
        train=train_config(raw["train"]),
        raw=raw,
    )


def apply_transform(g: TemporalGraph, cfg: PipelineConfig) -> TransformResult:
    return TRANSFORMS[cfg.transform.method](g, cfg)


def load_stage(cfg: PipelineConfig) -> TemporalGraph:
    logger.info("loading %s (%s)", cfg.dataset.path, cfg.dataset.format)
    return load_dataset(cfg.dataset.path, cfg.dataset.format)


def transform_stage(g: TemporalGraph, cfg: PipelineConfig, data_dir: Path,
                    out: Path) -> TransformResult:
    """Save the transformed dataset to ``data_dir``, and its lineage and
    report to ``out``, which must exist or be ``data_dir``."""
    logger.info("transform: %s", cfg.transform.method)
    result = apply_transform(g, cfg)
    save_dataset(result.graph, data_dir)
    save_lineage(result.graph, result.lineage, out / "lineage.tsv")
    (out / "transform_report.txt").write_text(result.report.format(), encoding="utf-8")
    return result


def filter_stage(g: TemporalGraph, mode: str, out: str | Path):
    """The stripped and the filtered triples by split; the filtered are
    saved to ``out``."""
    logger.info("filter: %s", mode)
    triples = strip_temporal(g)
    filtered = dict(zip(triples, apply_filter(
        triples["train"], triples["valid"], triples["test"], mode
    )))
    save_triples(filtered, g.entity_labels, g.predicate_labels, out)
    return triples, filtered


def train_stage(triples: dict[str, np.ndarray], num_entities: int, num_predicates: int,
                cfg: TrainConfig, out: str | Path, meta: dict | None = None, history=None):
    """Train on ``triples["train"]``; save the model to ``out``, with ``cfg``
    and ``meta`` in its meta file."""
    logger.info("training %d triples", len(triples["train"]))
    model = train(triples["train"], num_entities, num_predicates, cfg, history=history)
    save_model(model, out, extra_meta={"train_config": asdict(cfg), **(meta or {})})
    return model


def evaluate_stage(model, triples: dict[str, np.ndarray], tie_rule: str,
                   hits: tuple[int, ...], csv: str | Path | None = None, ranks=None):
    """Rank ``triples["test"]`` filtered by all three splits; write the
    metrics as CSV and the per-query ranks to the paths given."""
    logger.info("evaluating %d test triples", len(triples["test"]))
    known = np.concatenate((triples["train"], triples["valid"], triples["test"]))
    report, query_ranks = evaluate(model, triples["test"], known, tie_rule=tie_rule, ks=hits)
    if csv:
        Path(csv).write_text(report.csv(), encoding="utf-8")
    if ranks:
        Path(ranks).write_text(ranks_tsv(triples["test"], query_ranks), encoding="utf-8")
    return report


def run_pipeline(cfg: PipelineConfig):
    """Run the stages in order, writing the run's own files around them;
    returns the metric report."""
    out = cfg.output.dir
    out.mkdir(parents=True, exist_ok=True)
    # a manifest marks a complete run: drop a previous run's before this
    # run overwrites any of its artifacts
    (out / "manifest.json").unlink(missing_ok=True)
    ranks = out / "ranks.tsv" if cfg.eval.dump_ranks else None
    # the stages' artifacts; write() adds the run's own
    artifacts = ["transformed/", "lineage.tsv", "transform_report.txt", "filtered/", "model/",
                 "metrics.csv", *([ranks.name] if ranks else [])]

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        artifacts.append(name)

    g = load_stage(cfg)
    write("stats.txt", format_stats(dataset_stats(g)))
    g = transform_stage(g, cfg, out / "transformed", out).graph
    triples, filtered = filter_stage(g, cfg.filter.mode, out / "filtered")
    audit_report = audit(triples["train"], triples["valid"], triples["test"])
    write("audit.txt", format_audit(audit_report))
    write("audit.csv", audit_csv(audit_report))
    history: list[float] = []
    run_hash = config_hash(cfg.raw)
    model = train_stage(filtered, g.num_entities, g.num_predicates, cfg.train, out / "model",
                        {"config_hash": run_hash, "version": __version__}, history)
    write(
        "loss_history.csv",
        "epoch,loss\n" + "".join(f"{i},{x:.10g}\n" for i, x in enumerate(history)),
    )
    report = evaluate_stage(model, filtered, cfg.eval.tie_rule, cfg.eval.hits,
                            out / "metrics.csv", ranks)
    write("metrics.txt", report.format())

    manifest = {
        "version": __version__,
        "config_hash": run_hash,
        "seed": cfg.train.seed,
        "transform_seed": cfg.transform.seed,
        "artifacts": sorted(artifacts),
        "config": cfg.raw,
    }
    write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return report
