"""Config handling, pipeline artifacts, CLI subcommands and exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

import tkgkit
from tkgkit.cli import build_parser, main
from tkgkit.pipeline import (
    SCHEMA,
    ConfigError,
    build_config,
    config_hash,
    parse_section,
    read_config_file,
    run_pipeline,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def write_ini(path: Path, data_dir: Path, out_dir: Path, **overrides) -> Path:
    sections = {
        "dataset": {"path": str(data_dir)},
        "transform": {"method": "timestamp"},
        "filter": {"mode": "both"},
        "train": {
            "epochs": "2",
            "dimension": "8",
            "batch_size": "4",
            "negative_samples": "2",
        },
        "output": {"dir": str(out_dir)},
    }
    for dotted, value in overrides.items():
        sec, key = dotted.split("__")
        sections.setdefault(sec, {})[key] = str(value)
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in vals.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def seeded_dataset(root: Path, *sizes: int, events: bool = False) -> Path:
    """Split files of the given train/valid/test sizes, drawn with seed 0
    over 30 entities and 3 predicates: valid-time facts over 2000-2012 or,
    with ``events``, event facts on 40 ISO dates in 2014."""
    import numpy as np

    from conftest import write_split_files

    rng = np.random.default_rng(0)
    rows = {"train": [], "valid": [], "test": []}
    for name, n in zip(rows, sizes):
        for _ in range(n):
            s, o = rng.choice(30, 2, replace=False)
            b, p, d = rng.integers(2000, 2010), rng.integers(3), rng.integers(4)
            stamps = (f"2014-{b - 1999:02d}-{10 + d}",) if events else (b, b + d)
            rows[name].append((f"e{s}", f"r{p}", f"e{o}", *stamps))
    return write_split_files(root, rows)


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_read_config_merges_defaults(tmp_path, tiny_dataset):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    raw = read_config_file(ini, environ={})
    assert raw["dataset"]["format"] == "valid_time"  # default kept
    assert raw["train"]["epochs"] == "2"  # file wins
    assert raw["train"]["learning_rate"] == "1e-3"  # default


def test_read_config_unknown_section(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[records]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        read_config_file(ini, environ={})


def test_read_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_config_file(tmp_path / "absent.ini", environ={})


def test_env_overrides(tmp_path, tiny_dataset):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    raw = read_config_file(
        ini,
        environ={
            "TKGKIT_TRAIN_EPOCHS": "9",
            "TKGKIT_TRAIN_LEARNING_RATE": "0.5",
            "TKGKIT_FILTER_MODE": "none",
            "UNRELATED": "x",
        },
    )
    assert raw["train"]["epochs"] == "9"
    assert raw["train"]["learning_rate"] == "0.5"
    assert raw["filter"]["mode"] == "none"


def test_config_hash_properties(tmp_path, tiny_dataset):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    raw = read_config_file(ini, environ={})
    h1 = config_hash(raw)
    h2 = config_hash({k: dict(v) for k, v in reversed(list(raw.items()))})
    assert h1 == h2  # order-insensitive
    raw["train"]["epochs"] = "3"
    assert config_hash(raw) != h1


def base_raw(tiny_dataset, tmp_path):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    return read_config_file(ini, environ={})


@pytest.mark.parametrize(
    "section,key,value,hint",
    [
        ("dataset", "path", "/nonexistent/place", "not a directory"),
        ("dataset", "format", "parquet", "valid_time or event"),
        ("transform", "method", "shuffle", "method must be"),
        ("transform", "score", "katz", "score must be"),
        ("transform", "scope", "global", "scope must be"),
        ("filter", "mode", "hard", "mode must be"),
        ("train", "epochs", "-1", "epochs"),
        ("train", "dimension", "zero", "cannot parse"),
        ("train", "adversarial", "maybe", "cannot parse"),
        ("eval", "tie_rule", "best", "tie_rule"),
        ("eval", "hits", "1,x", "hits"),
        ("train", "epoch", "5", r"unknown config key \[train\] epoch$"),
        ("env", "TKGKIT_TRAIN_EPOCH", "7", "TKGKIT_TRAIN_EPOCH"),
        ("transform", "min_size", "0", r"\[transform\] min_size must be >= 1"),
        ("transform", "jump", "0", r"\[transform\] jump must be >= 1"),
        ("cli", "train --epochs", "-1", r"^\[train\] epochs must be >= 0$"),
        ("transform", "epsilon", "nan", r"\[transform\] epsilon: cannot parse 'nan'"),
        ("transform", "gamma", "nan", r"\[transform\] gamma: cannot parse 'nan'"),
        ("transform", "gamma", "inf", r"\[transform\] gamma must be finite"),
        ("env", "TKGKIT_TRANSFORM_EPSILON", "nan", r"\[transform\] epsilon: cannot parse"),
        ("train", "learning_rate", "nan", r"\[train\] learning_rate: cannot parse"),
        ("train", "margin", "NaN", r"\[train\] margin: cannot parse"),
        ("cli", "train --temperature", "nan", r"\[train\] temperature: cannot parse"),
        ("train", "seed", "-1", r"^\[train\] seed must be >= 0$"),
        ("cli", "train --seed", "-1", r"^\[train\] seed must be >= 0$"),
        ("train", "learning_rate", "inf", r"^\[train\] learning_rate must be finite and > 0$"),
        ("env", "TKGKIT_TRAIN_MARGIN", "inf", r"^\[train\] margin must be finite and > 0$"),
        ("cli", "train --temperature", "inf",
         r"^\[train\] temperature must be finite and > 0$"),
        ("transform", "seed", "-3", r"^\[transform\] seed must be >= 0$"),
        ("cli", "transform --seed", "-3", r"^\[transform\] seed must be >= 0$"),
    ],
)
def test_build_config_rejects(tiny_dataset, tmp_path, section, key, value, hint):
    """One bad setting in a config file, a TKGKIT_* variable ("env") or a
    subcommand flag ("cli"); a flag fails like the config key it sets."""
    def rejection(settings, environ):
        settings = {"transform__method": "split_cpd", "transform__epsilon": "1", **settings}
        ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out", **settings)
        with pytest.raises(ConfigError) as exc:
            build_config(read_config_file(ini, environ=environ))
        return str(exc.value)

    if section == "env":
        message = rejection({}, {key: value})
    elif section == "cli":
        command, flag = key.split()
        inputs = {
            "train": ["--triples", str(tiny_dataset)],
            "transform": ["--data", str(tiny_dataset), "--method", "split_cpd", "--epsilon", "1"],
        }[command]
        args = build_parser().parse_args(
            [command, flag, value, *inputs, "--out", str(tmp_path / "m")]
        )
        with pytest.raises(ConfigError) as exc:
            args.func(args)
        message = str(exc.value)
        config_key = flag[2:].replace("-", "_")
        assert message == rejection({f"{command}__{config_key}": value}, {})
    else:
        message = rejection({f"{section}__{key}": value}, {})
    assert re.search(hint, message), message


def test_build_config_requires_out_dir(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["output"] = {}
    with pytest.raises(ConfigError, match="dir is required"):
        build_config(raw)


def test_split_methods_need_grow(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["transform"]["method"] = "split_time"
    with pytest.raises(ConfigError, match="grow"):
        build_config(raw)
    raw["transform"]["grow"] = "0.5"
    with pytest.raises(ConfigError, match="grow"):
        build_config(raw)


def test_merge_needs_shrink_inf_allowed(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["transform"]["method"] = "merge"
    with pytest.raises(ConfigError, match="shrink"):
        build_config(raw)
    raw["transform"]["shrink"] = "inf"
    cfg = build_config(raw)
    assert math.isinf(cfg.transform.shrink)


def test_split_cpd_needs_epsilon(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["transform"]["method"] = "split_cpd"
    with pytest.raises(ConfigError, match="epsilon"):
        build_config(raw)
    raw["transform"]["epsilon"] = "2.0"
    cfg = build_config(raw)
    assert cfg.transform.epsilon == 2.0


@pytest.mark.parametrize(
    "key, value",
    [("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", math.nan), ("min_size", 0), ("jump", 0),
     ("gamma", 0.0), ("gamma", -1.0), ("gamma", math.inf)],
)
def test_cpd_settings_refused_alike(tiny_dataset, tmp_path, key, value):
    """split_cpd refuses a bad detection setting with the message that
    build_config gives under [transform]; a config file cannot hold NaN."""
    with pytest.raises(ValueError) as exc:
        tkgkit.split_cpd(tkgkit.load_dataset(tiny_dataset), **{"epsilon": 1.0, key: value})
    assert re.match(rf"{key} must be (>|finite)", str(exc.value))
    if math.isnan(value):
        return
    settings = {"transform__method": "split_cpd", "transform__epsilon": "1",
                f"transform__{key}": str(value)}
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out", **settings)
    with pytest.raises(ConfigError) as config_exc:
        build_config(read_config_file(ini, environ={}))
    assert str(config_exc.value) == f"[transform] {exc.value}"


def test_build_config_happy(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    cfg = build_config(raw)
    assert cfg.transform.method == "timestamp"
    assert cfg.filter.mode == "both"
    assert cfg.train.epochs == 2
    assert cfg.eval.hits == (1, 3, 10)
    assert cfg.raw is raw


def test_config_from_a_dict_records_the_defaults(tiny_dataset, tmp_path):
    # the settings write_ini writes, given as a dict with no defaults
    raw = {
        "dataset": {"path": str(tiny_dataset)},
        "transform": {"method": "timestamp"},
        "filter": {"mode": "both"},
        "train": {"epochs": "2", "dimension": "8", "batch_size": "4",
                  "negative_samples": "2"},
        "output": {"dir": str(tmp_path / "out")},
    }
    from_ini = build_config(base_raw(tiny_dataset, tmp_path)).raw
    recorded = build_config(raw).raw
    assert recorded == from_ini
    assert config_hash(recorded) == config_hash(from_ini)


def test_every_setting_reads_back_under_its_key(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["transform"].update(method="split_cpd", epsilon="2.0", grow="3", shrink="inf",
                            gamma="0.5", seed="4")
    raw["eval"].update(hits="2,5", dump_ranks="true")
    cfg = build_config(raw)
    for sec, table in SCHEMA.items():
        parsed = parse_section(sec, raw[sec])
        for key in table:
            assert getattr(getattr(cfg, sec), key) == parsed[key], (sec, key)


def test_readme_example_config_loads(tiny_dataset, tmp_path):
    # values are literal, so a comment on a value's line would become part
    # of the value; the example keeps each comment on its own line
    block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "run.ini"
    ini.write_text(block, encoding="utf-8")
    raw = read_config_file(ini, environ={
        "TKGKIT_DATASET_PATH": str(tiny_dataset),
        "TKGKIT_OUTPUT_DIR": str(tmp_path / "out"),
    })
    cfg = build_config(raw)
    assert (cfg.dataset.format, cfg.transform.method, cfg.transform.score) == (
        "valid_time", "split_cpd", "pref")
    assert (cfg.transform.scope, cfg.filter.mode, cfg.eval.tie_rule) == (
        "predicate", "inter", "mean")


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

EXPECTED_FILES = [
    "audit.csv",
    "audit.txt",
    "lineage.tsv",
    "loss_history.csv",
    "manifest.json",
    "metrics.csv",
    "metrics.txt",
    "stats.txt",
    "transform_report.txt",
]


def test_run_pipeline_artifacts(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    cfg = build_config(raw)
    report = run_pipeline(cfg)
    out = cfg.output.dir
    for name in EXPECTED_FILES:
        assert (out / name).is_file(), name
    for sub in ("transformed", "filtered", "model"):
        assert (out / sub).is_dir()
    assert report.query_count > 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == tkgkit.__version__
    assert manifest["config_hash"] == config_hash(raw)
    assert manifest["seed"] == cfg.train.seed
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    listed = {a.rstrip("/") for a in manifest["artifacts"]}
    expected = set(EXPECTED_FILES) | {"transformed", "filtered", "model"}
    assert listed == expected - {"manifest.json"}  # manifest never lists itself


def test_run_pipeline_byte_reproducible(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    cfg = build_config(raw)
    run_pipeline(cfg)
    first = tree_digest(cfg.output.dir)
    run_pipeline(build_config(raw))
    second = tree_digest(cfg.output.dir)
    assert first == second


def test_run_pipeline_dump_ranks(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["eval"]["dump_ranks"] = "true"
    cfg = build_config(raw)
    run_pipeline(cfg)
    ranks = (cfg.output.dir / "ranks.tsv").read_text().splitlines()
    assert ranks[0] == "subject\tpredicate\tobject\tside\trank"
    assert len(ranks) > 1


def test_run_pipeline_loss_history_rows(tiny_dataset, tmp_path):
    raw = base_raw(tiny_dataset, tmp_path)
    raw["train"]["epochs"] = "4"
    cfg = build_config(raw)
    run_pipeline(cfg)
    lines = (cfg.output.dir / "loss_history.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_load_stats(tiny_dataset, capsys):
    assert main(["load-stats", "--data", str(tiny_dataset)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["entities", "3"]


@pytest.mark.parametrize("name", ["train.txt", "entities.dict"])
def test_cli_load_stats_non_utf8_exits_3(tiny_dataset, tmp_path, capsys, name):
    # a Latin-1 label; entities.dict is read from a dataset save_dataset wrote
    root = tmp_path / "saved"
    tkgkit.save_dataset(tkgkit.load_dataset(tiny_dataset), root)
    path = root / name
    path.write_bytes(path.read_bytes().replace(b"a", b"Jos\xe9", 1))
    assert main(["load-stats", "--data", str(root)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err


def test_cli_transform_writes_outputs(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main([
        "transform", "--data", str(tiny_dataset), "--method", "split_time",
        "--grow", "2", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "train.txt").is_file()
    assert (out / "lineage.tsv").is_file()
    assert (out / "transform_report.txt").is_file()
    assert "predicates 2 -> 4" in capsys.readouterr().out


def test_cli_audit_csv(tiny_dataset, tmp_path, capsys):
    csv = tmp_path / "audit.csv"
    assert main(["audit", "--data", str(tiny_dataset), "--csv", str(csv)]) == 0
    assert "intra-set duplicates" in capsys.readouterr().out
    assert csv.read_text().startswith("metric,value")


def test_cli_filter_train_eval_chain(tiny_dataset, tmp_path, capsys):
    filtered = tmp_path / "filtered"
    assert main([
        "filter", "--data", str(tiny_dataset), "--mode", "both", "--out", str(filtered),
    ]) == 0
    model_dir = tmp_path / "model"
    assert main([
        "train", "--triples", str(filtered), "--out", str(model_dir),
        "--dimension", "8", "--epochs", "2", "--batch-size", "4",
        "--negative-samples", "2", "--export",
    ]) == 0
    assert (model_dir / "entity.npy").is_file()
    assert (model_dir / "entity_embeddings.tsv").is_file()
    capsys.readouterr()
    ranks = tmp_path / "ranks.tsv"
    assert main([
        "eval", "--triples", str(filtered), "--model", str(model_dir),
        "--ranks-out", str(ranks),
    ]) == 0
    out = capsys.readouterr().out
    assert "mrr" in out
    assert ranks.read_text().startswith("subject\t")


def test_cli_eval_model_mismatch(tiny_dataset, tmp_path, capsys):
    filtered = tmp_path / "filtered"
    main(["filter", "--data", str(tiny_dataset), "--mode", "none", "--out", str(filtered)])
    model_dir = tmp_path / "model"
    main([
        "train", "--triples", str(filtered), "--out", str(model_dir),
        "--dimension", "4", "--epochs", "0",
    ])
    other = tmp_path / "other"
    other.mkdir()
    for name in ("train", "valid", "test"):
        (other / f"{name}.txt").write_text("x\tr\ty\n")
    assert main(["eval", "--triples", str(other), "--model", str(model_dir)]) == 3


def test_cli_eval_ranks_a_run_with_its_ids(tiny_dataset, tmp_path):
    # split_time reorders facts, so first-seen order is not the run's ids
    out = tmp_path / "tiny_run"
    ini = write_ini(tmp_path / "tiny.ini", tiny_dataset, out,
                    transform__method="split_time", transform__grow=2)
    assert main(["run", "--config", str(ini)]) == 0
    assert tkgkit.load_triples(out / "filtered")[1] == ("a", "b", "c")

    # 30 entities and 3 predicates: eval reproduces the run's metrics
    out = tmp_path / "run"
    ini = write_ini(tmp_path / "run.ini", seeded_dataset(tmp_path / "data", 120, 10, 20), out,
                    transform__method="split_time", transform__grow=3)
    assert main(["run", "--config", str(ini)]) == 0
    csv = tmp_path / "metrics.csv"
    args = ["eval", "--triples", str(out / "filtered"), "--model", str(out / "model")]
    assert main([*args, "--csv", str(csv)]) == 0
    assert csv.read_text() == (out / "metrics.csv").read_text()
    # ids out of order, or a label the tables lack, is a data error
    table = out / "filtered" / "entities.dict"
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines[1::-1] + lines[2:]))
    assert main(args) == 3
    table.write_text("".join(lines))
    with open(out / "filtered" / "test.txt", "a") as fh:
        fh.write("e0\tunseen\te1\n")
    assert main(args) == 3


@pytest.mark.parametrize("fmt", ["valid_time", "event"])
def test_cli_stage_chain_reproduces_run(tmp_path, fmt):
    # each subcommand runs one stage of `run`: given the run's settings,
    # transform -> filter -> train -> eval writes the run's bytes; a saved
    # dataset reads back in its own layout, whatever --format says
    data = seeded_dataset(tmp_path / "data", 300, 30, 50, events=fmt == "event")
    run = tmp_path / "run"
    ini = write_ini(tmp_path / "run.ini", data, run, dataset__format=fmt,
                    transform__method="split_time", transform__grow=2)
    assert main(["run", "--config", str(ini)]) == 0
    transformed, filtered, model = (tmp_path / name for name in ("t", "f", "m"))
    assert main(["transform", "--data", str(data), "--format", fmt, "--method", "split_time",
                 "--grow", "2", "--out", str(transformed)]) == 0
    assert main(["filter", "--data", str(transformed), "--format", fmt, "--mode", "both",
                 "--out", str(filtered)]) == 0
    assert main(["train", "--triples", str(filtered), "--out", str(model), "--epochs", "2",
                 "--dimension", "8", "--batch-size", "4", "--negative-samples", "2"]) == 0
    assert main(["eval", "--triples", str(filtered), "--model", str(model),
                 "--csv", str(tmp_path / "metrics.csv")]) == 0
    pairs = {
        **{run / "transformed" / p.name: p for p in transformed.glob("*.*")
           if p.name not in ("lineage.tsv", "transform_report.txt")},
        run / "lineage.tsv": transformed / "lineage.tsv",
        run / "transform_report.txt": transformed / "transform_report.txt",
        **{run / "filtered" / p.name: p for p in filtered.iterdir()},
        **{run / "model" / p.name: p for p in model.glob("*.npy")},
        run / "metrics.csv": tmp_path / "metrics.csv",
    }
    assert len(pairs) == 16
    for ran, chained in pairs.items():
        assert ran.read_bytes() == chained.read_bytes(), ran.relative_to(run)


def test_cli_eval_non_finite_model(tiny_dataset, tmp_path):
    import numpy as np

    filtered = tmp_path / "filtered"
    main(["filter", "--data", str(tiny_dataset), "--mode", "none", "--out", str(filtered)])
    _, entity_labels, predicate_labels = tkgkit.load_triples(filtered)
    model = tkgkit.EmbeddingModel(
        entity=np.full((len(entity_labels), 4), np.nan),
        predicate=np.full((len(predicate_labels), 4), np.nan),
    )
    tkgkit.save_model(model, tmp_path / "model")
    assert main(["eval", "--triples", str(filtered), "--model", str(tmp_path / "model")]) == 4


def test_cli_eval_bad_checkpoint_exits_3(tiny_dataset, tmp_path, capsys):
    import numpy as np

    filtered = tmp_path / "filtered"
    main(["filter", "--data", str(tiny_dataset), "--mode", "none", "--out", str(filtered)])
    _, entity_labels, predicate_labels = tkgkit.load_triples(filtered)
    model = tkgkit.EmbeddingModel(
        entity=np.zeros((len(entity_labels), 4)), predicate=np.zeros((len(predicate_labels), 4))
    )
    for bad, edit in (
        ("meta", lambda d: (d / "model.meta.json").write_text("[]")),
        ("dtype", lambda d: np.save(d / "entity.npy", model.entity.astype(complex))),
    ):
        tkgkit.save_model(model, tmp_path / bad)
        edit(tmp_path / bad)
        assert main(["eval", "--triples", str(filtered), "--model", str(tmp_path / bad)]) == 3
        assert "data error" in capsys.readouterr().err


def test_cli_segment_debug(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("0\n0\n0\n5\n5\n5\n")
    assert main(["segment-debug", "--signal", str(sig), "--epsilon", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "breakpoints: 3 6" in out
    assert main(["segment-debug", "--signal", str(tmp_path / "no.csv"),
                 "--epsilon", "1"]) == 3
    assert main(["segment-debug", "--signal", str(sig), "--epsilon", "-1"]) == 2
    assert main(["segment-debug", "--signal", str(sig), "--epsilon", "1",
                 "--min-size", "0"]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.warns(UserWarning):
        assert main(["segment-debug", "--signal", str(empty), "--epsilon", "1"]) == 3


def test_cli_segment_debug_non_finite(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("0\n0\n0\n5\n5\n5\n")
    for flag, value in (("--gamma", "nan"), ("--gamma", "inf"), ("--epsilon", "nan")):
        args = ["segment-debug", "--signal", str(sig), "--epsilon", "1", flag, value]
        assert main(args) == 2, (flag, value)
    assert "gamma must be finite" in capsys.readouterr().err
    bad = tmp_path / "nan.csv"
    bad.write_text("0\n0\n0\nnan\n5\n5\n")
    assert main(["segment-debug", "--signal", str(bad), "--epsilon", "1"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_cli_segment_debug_kernel_overflow(tmp_path, capsys):
    # finite rows whose squared distances overflow: the kernel matrix is not
    # finite, a numeric failure reported in one line
    sig = tmp_path / "big.csv"
    sig.write_text("1e200,0\n-1e200,0\n1e200,0\n-1e200,0\n")
    assert main(["segment-debug", "--signal", str(sig), "--epsilon", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "kernel matrix is not finite" in err
    assert err.count("\n") == 1
    # the same rows scaled to unit norm segment fine
    args = ["segment-debug", "--signal", str(sig), "--epsilon", "1", "--normalize"]
    assert main(args) == 0


def test_cli_run_exit_codes(tiny_dataset, tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    assert main(["run", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write_ini(tmp_path / "bad.ini", tmp_path / "nope", tmp_path / "out2")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_run_non_utf8_config_exits_2(tiny_dataset, tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    ini.write_bytes(ini.read_bytes() + b"# \xff\n")
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(ini) in err


def test_cli_run_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    for name in ("train", "valid", "test"):
        (empty / f"{name}.txt").write_text("")
    ini = write_ini(tmp_path / "c.ini", empty, tmp_path / "out")
    assert main(["run", "--config", str(ini)]) == 3


def test_cli_run_split_emptied_by_load(tmp_path, capsys):
    # every test fact ends before it begins: load drops them all, and the run
    # must stop there instead of training a model it cannot evaluate
    root = tmp_path / "d"
    root.mkdir()
    (root / "train.txt").write_text("a\tr\tb\t2000\t2004\nb\tr\tc\t2001\t2002\n")
    (root / "valid.txt").write_text("a\tr\tc\t2000\t2001\n")
    (root / "test.txt").write_text("b\tr\ta\t2004\t2001\nc\tr\ta\t2002\t2000\n")
    ini = write_ini(tmp_path / "c.ini", root, tmp_path / "out")
    assert main(["run", "--config", str(ini)]) == 3
    assert "test.txt contains no facts" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model").exists()


def test_cli_run_numeric_error(tiny_dataset, tmp_path):
    import numpy as np

    ini = write_ini(
        tmp_path / "c.ini", tiny_dataset, tmp_path / "out",
        train__learning_rate="1e308", train__epochs="3",
    )
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(ini)]) == 4


def test_cli_failed_rerun_leaves_no_manifest(tiny_dataset, tmp_path):
    # a manifest vouches for a complete run: a rerun into the same directory
    # that fails in training must not leave the first run's manifest next
    # to its own partial artifacts
    import numpy as np

    out = tmp_path / "out"
    assert main(["run", "--config", str(write_ini(tmp_path / "ok.ini", tiny_dataset, out))]) == 0
    assert (out / "manifest.json").is_file()
    bad = write_ini(tmp_path / "bad.ini", tiny_dataset, out,
                    train__learning_rate="1e308", train__epochs="3")
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(bad)]) == 4
    assert not (out / "manifest.json").exists()


def test_cli_run_non_finite_model(tiny_dataset, tmp_path, monkeypatch):
    import numpy as np

    def nan_train(triples, num_entities, num_predicates, cfg, history=None):
        return tkgkit.EmbeddingModel(
            entity=np.full((num_entities, cfg.dimension), np.nan),
            predicate=np.full((num_predicates, cfg.dimension), np.nan),
        )

    monkeypatch.setattr("tkgkit.pipeline.train", nan_train)
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    assert main(["run", "--config", str(ini)]) == 4


def test_cli_value_error_propagates(tiny_dataset, tmp_path, monkeypatch):
    # only config faults map to exit 2; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("bug in a stage")

    monkeypatch.setattr("tkgkit.pipeline.apply_filter", broken)
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    with pytest.raises(ValueError, match="bug in a stage"):
        main(["run", "--config", str(ini)])


def test_cli_run_seed_override(tiny_dataset, tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    main(["run", "--config", str(ini), "--seed", "3"])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["transform_seed"] == 3


def test_cli_sweep_grid(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "sweep"
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, out)
    rc = main([
        "run", "--config", str(ini),
        "--sweep", "train.dimension=4,8",
        "--sweep", "train.seed= 0, 1",
    ])
    assert rc == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == [
        "dimension=4_seed=0", "dimension=4_seed=1",
        "dimension=8_seed=0", "dimension=8_seed=1",
    ]
    for d in dirs:
        assert (out / d / "metrics.txt").is_file()


def test_cli_sweep_bad_spec(tiny_dataset, tmp_path):
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    assert main(["run", "--config", str(ini), "--sweep", "dimension=4"]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "train.dimension="]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "train.epoch=1,2"]) == 2
    # every grid point is checked before the first one runs
    assert main(["run", "--config", str(ini), "--sweep", "train.epochs=1,-1"]) == 2
    # two grid points would share a directory, or run one setting twice
    assert main(["run", "--config", str(ini), "--sweep", "train.dimension=4,4"]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "train.dimension=4",
                 "--sweep", "train.dimension=8"]) == 2
    # values compare once stripped and parsed: 4 and 04, or 1.0 and 1, are one
    assert main(["run", "--config", str(ini), "--sweep", "train.dimension=4,04"]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "train.margin=1.0, 1"]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "train.dimension=4,x"]) == 2
    assert main(["run", "--config", str(ini), "--sweep", "trian.dimension=4"]) == 2
    assert not (tmp_path / "out").exists()


def test_config_file_values_are_literal(tiny_dataset, tmp_path):
    # no %-interpolation: a file value reads back as written, as a
    # TKGKIT_* value does
    out = str(tmp_path / "out" / "100%_%(dir)s")
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, out)
    raw = read_config_file(ini, environ={})
    assert raw["output"]["dir"] == out
    assert build_config(raw).output.dir == Path(out)


def test_cli_env_override(tiny_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TKGKIT_TRAIN_EPOCHS", "0")
    ini = write_ini(tmp_path / "c.ini", tiny_dataset, tmp_path / "out")
    assert main(["run", "--config", str(ini)]) == 0
    lines = (tmp_path / "out" / "loss_history.csv").read_text().splitlines()
    assert lines == ["epoch,loss"]  # zero epochs: header only


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert tkgkit.__version__ in capsys.readouterr().out


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
