"""Duplicate auditing and leakage filtering for stripped triple splits.

Stripping temporal scope collapses facts that differed only in time into
identical (s, p, o) triples.  That creates duplicates inside a split and,
worse, test triples that literally occur in train.  The audit counts both;
the filters remove them: "intra" deduplicates within each split, "inter"
drops valid/test triples present in train, "both" does intra then inter.
Splits are int64 (n, 3) arrays of ``(s, p, o)`` rows, compared through one
packed int64 key per row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SPLIT_NAMES, DataError, distinct_keys

FILTER_MODES = ("none", "intra", "inter", "both")


@dataclass
class SplitAudit:
    size: int
    distinct: int
    duplicates: int
    # surplus occurrences over the raw split size
    duplicate_fraction: float


@dataclass
class DuplicateAudit:
    train: SplitAudit
    valid: SplitAudit
    test: SplitAudit
    test_in_train: int
    # inter counts are over distinct triples, hence distinct denominators
    test_in_train_fraction: float
    valid_in_train: int
    valid_in_train_fraction: float

    def split(self, name: str) -> SplitAudit:
        return {"train": self.train, "valid": self.valid, "test": self.test}[name]


def _rows(triples) -> np.ndarray:
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def _keys(*splits: np.ndarray) -> list[np.ndarray]:
    """One int64 key per row of each split, equal exactly when the rows are;
    each column is packed into a width above its largest id in any split."""
    rows = np.concatenate(splits)
    ws, wp, wo = (int(w) + 1 for w in rows.max(axis=0, initial=0))
    if ws * wp * wo >= 2**63:
        raise ValueError("triple ids too large to pack into one int64")
    keys = (rows[:, 0] * wp + rows[:, 1]) * wo + rows[:, 2]
    return np.split(keys, np.cumsum([len(x) for x in splits])[:-1])


# keys are >= 0, so a -1 put before or after them matches none

def _first_seen(keys: np.ndarray) -> np.ndarray:
    """Mask of each key's first occurrence: the least index in each run of
    equal sorted keys."""
    order = np.argsort(keys)
    runs = np.flatnonzero(np.diff(keys[order], prepend=-1))
    keep = np.zeros(len(keys), dtype=bool)
    keep[np.minimum.reduceat(order, runs)] = True
    return keep


def _member(keys: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Mask of the keys found in the sorted distinct keys ``distinct``."""
    return np.append(distinct, -1)[np.searchsorted(distinct, keys)] == keys


def _split_audit(distinct: int, size: int) -> SplitAudit:
    dups = size - distinct
    return SplitAudit(size, distinct, dups, dups / size if size else 0.0)


def audit(train: np.ndarray, valid: np.ndarray, test: np.ndarray) -> DuplicateAudit:
    """Count within-split duplicates and valid/test occurrences in train.

    Duplicate counts are surplus occurrences (size minus distinct) over the
    raw split; the cross-split counts compare distinct triples, so their
    fractions are over the split's distinct size.
    """
    splits = [_rows(x) for x in (train, valid, test)]
    distinct = list(map(distinct_keys, _keys(*splits)))
    a_train, a_valid, a_test = map(_split_audit, map(len, distinct), map(len, splits))
    vit, tit = (int(_member(u, distinct[0]).sum()) for u in distinct[1:])
    return DuplicateAudit(
        train=a_train,
        valid=a_valid,
        test=a_test,
        test_in_train=tit,
        test_in_train_fraction=tit / a_test.distinct if a_test.distinct else 0.0,
        valid_in_train=vit,
        valid_in_train_fraction=vit / a_valid.distinct if a_valid.distinct else 0.0,
    )


def apply_filter(
    train: np.ndarray, valid: np.ndarray, test: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the three splits filtered, as (n, 3) arrays.

    "intra" keeps the first occurrence of each row in row order; "inter"
    keeps the valid and test rows absent from train, in row order.  Raises
    when a nonempty test split is filtered down to nothing, since
    evaluating against it would be meaningless.
    """
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}; expected one of {FILTER_MODES}")
    splits = [_rows(x) for x in (train, valid, test)]
    keys = _keys(*splits)
    keep = [np.ones(len(k), dtype=bool) for k in keys]
    if mode in ("intra", "both"):
        keep = list(map(_first_seen, keys))
    if mode in ("inter", "both"):
        in_train = distinct_keys(keys[0])
        for k, kp in zip(keys[1:], keep[1:]):
            kp &= ~_member(k, in_train)
    f_train, f_valid, f_test = (x[kp] for x, kp in zip(splits, keep))
    if len(splits[2]) and not len(f_test):
        raise DataError(f"filter mode {mode!r} removed every test triple")
    return f_train, f_valid, f_test


def format_audit(a: DuplicateAudit) -> str:
    """Human-readable audit: duplicates per split, then train leakage."""
    lines = ["intra-set duplicates"]
    for name in SPLIT_NAMES:
        s = a.split(name)
        lines.append(
            f"  {name:<5}  {s.duplicates:>8} / {s.size:<8} ({100 * s.duplicate_fraction:.2f}%)"
        )
    lines.append("inter-set occurrences in train (over distinct triples)")
    lines.append(
        f"  test   {a.test_in_train:>8} / {a.test.distinct:<8}"
        f" ({100 * a.test_in_train_fraction:.2f}%)"
    )
    lines.append(
        f"  valid  {a.valid_in_train:>8} / {a.valid.distinct:<8}"
        f" ({100 * a.valid_in_train_fraction:.2f}%)"
    )
    return "\n".join(lines) + "\n"


def audit_csv(a: DuplicateAudit) -> str:
    rows = ["metric,value"]
    for name in SPLIT_NAMES:
        s = a.split(name)
        rows.append(f"{name}_size,{s.size}")
        rows.append(f"{name}_duplicates,{s.duplicates}")
        rows.append(f"{name}_duplicate_pct,{100 * s.duplicate_fraction:.2f}")
    rows.append(f"test_in_train,{a.test_in_train}")
    rows.append(f"test_in_train_pct,{100 * a.test_in_train_fraction:.2f}")
    rows.append(f"valid_in_train,{a.valid_in_train}")
    rows.append(f"valid_in_train_pct,{100 * a.valid_in_train_fraction:.2f}")
    return "\n".join(rows) + "\n"
