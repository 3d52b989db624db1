"""Duplicate audit and the four filter modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgkit import DataError, apply_filter, audit
from tkgkit.leakage import FILTER_MODES, audit_csv, format_audit


def T(s, p, o):
    return (s, p, o)


def rows(triples):
    """An (n, 3) array or list of triples as a list of tuples."""
    return list(map(tuple, np.asarray(triples).reshape(-1, 3).tolist()))


def splits_with_leakage():
    train = [T(0, 0, 1), T(0, 0, 1), T(0, 0, 1), T(1, 0, 2), T(2, 1, 0)]
    valid = [T(1, 0, 2), T(3, 1, 0)]
    test = [T(0, 0, 1), T(0, 0, 1), T(4, 1, 1), T(2, 1, 0)]
    return train, valid, test


def is_clean(a) -> bool:
    """No duplicate within a split and no valid or test triple in train."""
    return (a.train.duplicates, a.valid.duplicates, a.test.duplicates,
            a.valid_in_train, a.test_in_train) == (0, 0, 0, 0, 0)


def test_audit_counts():
    a = audit(*splits_with_leakage())
    assert (a.train.size, a.train.distinct, a.train.duplicates) == (5, 3, 2)
    assert a.train.duplicate_fraction == pytest.approx(2 / 5)
    assert (a.test.size, a.test.distinct, a.test.duplicates) == (4, 3, 1)
    assert a.valid.duplicates == 0
    # inter counts are over distinct triples
    assert a.test_in_train == 2
    assert a.test_in_train_fraction == pytest.approx(2 / 3)
    assert a.valid_in_train == 1
    assert a.valid_in_train_fraction == pytest.approx(1 / 2)
    assert not is_clean(a)


def test_audit_clean():
    a = audit([T(0, 0, 1)], [T(1, 0, 2)], [T(2, 0, 0)])
    assert is_clean(a)
    assert a.test_in_train_fraction == 0.0


def test_audit_empty_splits():
    a = audit([], [], [])
    assert a.train.size == 0
    assert a.train.duplicate_fraction == 0.0
    assert a.test_in_train_fraction == 0.0


def test_filter_none_is_identity():
    train, valid, test = splits_with_leakage()
    f_train, f_valid, f_test = apply_filter(train, valid, test, "none")
    assert (rows(f_train), rows(f_valid), rows(f_test)) == (train, valid, test)


def test_filter_intra_dedups_keeping_order():
    train, valid, test = splits_with_leakage()
    f_train, f_valid, f_test = apply_filter(train, valid, test, "intra")
    assert rows(f_train) == [T(0, 0, 1), T(1, 0, 2), T(2, 1, 0)]
    assert rows(f_test) == [T(0, 0, 1), T(4, 1, 1), T(2, 1, 0)]
    assert rows(f_valid) == valid


def test_filter_inter_removes_train_members_only():
    train, valid, test = splits_with_leakage()
    f_train, f_valid, f_test = apply_filter(train, valid, test, "inter")
    assert rows(f_train) == train  # train never changes
    assert rows(f_valid) == [T(3, 1, 0)]
    assert rows(f_test) == [T(4, 1, 1)]


def test_filter_both_composes():
    train, valid, test = splits_with_leakage()
    via_both = apply_filter(train, valid, test, "both")
    intra = apply_filter(train, valid, test, "intra")
    via_chain = apply_filter(*intra, "inter")
    assert list(map(rows, via_both)) == list(map(rows, via_chain))


def test_filter_both_audit_reports_zero():
    train, valid, test = splits_with_leakage()
    f_train, f_valid, f_test = apply_filter(train, valid, test, "both")
    assert is_clean(audit(f_train, f_valid, f_test))


def test_filter_unknown_mode():
    with pytest.raises(ValueError):
        apply_filter([], [], [], "extra")


def test_filter_emptied_test_raises():
    train = [T(0, 0, 1)]
    test = [T(0, 0, 1)]
    with pytest.raises(DataError, match="removed every test"):
        apply_filter(train, [], test, "inter")


def test_filter_empty_test_passes_through():
    out = apply_filter([T(0, 0, 1)], [], [], "both")
    assert list(map(rows, out)) == [[T(0, 0, 1)], [], []]


triples_st = st.lists(
    st.builds(T, st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
    max_size=15,
)


@settings(max_examples=60, deadline=None)
@given(train=triples_st, valid=triples_st, test=triples_st)
def test_filter_idempotent_all_modes(train, valid, test):
    for mode in FILTER_MODES:
        try:
            once = apply_filter(train, valid, test, mode)
        except DataError:
            continue  # emptied test split; nothing to re-filter
        twice = apply_filter(*once, mode)
        assert list(map(rows, once)) == list(map(rows, twice))


@settings(max_examples=60, deadline=None)
@given(train=triples_st, valid=triples_st, test=triples_st)
def test_filter_both_always_clean(train, valid, test):
    try:
        out = apply_filter(train, valid, test, "both")
    except DataError:
        return
    assert is_clean(audit(*out))


def test_format_audit_percentages():
    text = format_audit(audit(*splits_with_leakage()))
    assert "40.00%" in text  # train duplicates 2/5
    assert "66.67%" in text  # test in train 2/3
    assert text.startswith("intra-set duplicates")


def test_audit_csv_rows():
    text = audit_csv(audit(*splits_with_leakage()))
    lines = text.strip().split("\n")
    assert lines[0] == "metric,value"
    as_map = dict(l.split(",") for l in lines[1:])
    assert as_map["train_duplicates"] == "2"
    assert as_map["test_in_train"] == "2"
    assert as_map["valid_in_train_pct"] == "50.00"
