"""Kernel CPD: costs vs naive oracles, bottom-up search behavior."""

from __future__ import annotations

import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tkgkit import (
    bottom_up,
    median_heuristic_gamma,
    normalize_rows,
    rbf_kernel,
)
from tkgkit import cpd
from tkgkit.cpd import _GramCosts, check_settings


def segment_cost(signal, a: int, b: int, gamma: float) -> float:
    """Kernelized mean-change cost of samples a..b-1 alone."""
    x = np.asarray(signal, dtype=np.float64).reshape(len(signal), -1)
    return _GramCosts(x[a:b], gamma).cost(0, b - a)


def naive_cost(x: np.ndarray, a: int, b: int, gamma: float) -> float:
    """Textbook double loop over the kernel matrix."""
    total = 0.0
    for i in range(a, b):
        for j in range(a, b):
            total += rbf_kernel(x[i], x[j], gamma)
    return (b - a) - total / (b - a)


def test_normalize_rows_unit_norm():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    out = normalize_rows(x)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_allclose(out[1], [0.0, 0.0])  # zero row untouched
    np.testing.assert_allclose(np.linalg.norm(out[2]), 1.0)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (4, 3), elements=st.floats(-5, 5)))
def test_normalize_rows_idempotent(x):
    once = normalize_rows(x)
    twice = normalize_rows(once)
    np.testing.assert_allclose(once, twice, atol=1e-12)


def test_normalize_rows_tiny_and_huge_rows():
    # squares of these values are subnormal or overflow
    x = np.array([[1.75811779e-161] * 3, [1e200, 0.0, 1e200], [3.0, 4.0, 0.0]])
    out = normalize_rows(x)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-15)
    assert out[2].tolist() == [0.6, 0.8, 0.0]


def test_rbf_kernel_values():
    assert rbf_kernel(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 3.0) == 1.0
    got = rbf_kernel(np.array([0.0]), np.array([2.0]), 0.5)
    assert got == pytest.approx(np.exp(-0.5 * 4.0))


def test_rbf_kernel_shape_mismatch():
    with pytest.raises(ValueError):
        rbf_kernel(np.zeros(2), np.zeros(3), 1.0)


def test_median_heuristic_exact_small():
    x = np.array([[0.0], [1.0], [3.0], [7.0]])
    d2 = [(x[i, 0] - x[j, 0]) ** 2 for i in range(4) for j in range(i + 1, 4)]
    assert median_heuristic_gamma(x) == pytest.approx(1.0 / np.median(d2))


def test_median_heuristic_subsampling(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    d2 = [float((x[i] - x[j]) @ (x[i] - x[j])) for i in range(30) for j in range(i + 1, 30)]
    total = len(d2)
    max_pairs = 50
    stride = -(-total // max_pairs)
    sub = d2[::stride]
    assert len(sub) <= max_pairs
    monkeypatch.setattr(cpd, "MEDIAN_PAIRS", max_pairs)
    got = median_heuristic_gamma(x)
    assert got == pytest.approx(1.0 / np.median(sub))
    # deterministic
    assert got == median_heuristic_gamma(x)


def test_median_heuristic_degenerate():
    assert median_heuristic_gamma(np.zeros((5, 2))) == 1.0
    assert median_heuristic_gamma(np.zeros((1, 2))) == 1.0
    # median squared distance 1.35e-314: its inverse overflows to inf, which
    # made every Gram entry exp(-inf * 0) = nan and bottom_up fail
    tiny = np.array([[1.16331175e-157], [0.0], [0.0], [0.0]])
    assert median_heuristic_gamma(tiny) == 1.0
    assert bottom_up(tiny, penalty=0.0).num_samples == 4


def reference_median_heuristic_gamma(signal, max_pairs=10000):
    """median_heuristic_gamma as first written: every pair's distance, row
    by row, then the strided sample of the flat (i < j) pair list."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return 1.0
    total = n * (n - 1) // 2
    stride = -(-total // max_pairs)
    dists = []
    flat = 0
    for i in range(n - 1):
        row = x[i + 1 :] - x[i]
        sq = np.einsum("ij,ij->i", row, row)
        take = np.arange((-flat) % stride, sq.shape[0], stride)
        if take.size:
            dists.append(sq[take])
        flat += sq.shape[0]
    all_d = np.concatenate(dists) if dists else np.zeros(0)
    if all_d.size == 0:
        return 1.0
    med = float(np.median(all_d))
    if med <= 0.0 or not math.isfinite(med) or not math.isfinite(1.0 / med):
        return 1.0
    return 1.0 / med


@settings(max_examples=80, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(0, 30), st.integers(1, 6)),
        # ties, exact zeros and values whose squared distance overflows
        elements=st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, 1e200, -1e200]),
            st.floats(-1e3, 1e3),
        ),
        fill=st.nothing(),
    ),
    max_pairs=st.sampled_from([1, 2, 7, 40, 10000]),
    chunk=st.sampled_from([1, 5, 64, cpd._CHUNK_ELEMENTS]),
)
@example(x=np.zeros((0, 2)), max_pairs=10000, chunk=cpd._CHUNK_ELEMENTS)
@example(x=np.ones((1, 2)), max_pairs=10000, chunk=cpd._CHUNK_ELEMENTS)
@example(x=np.array([[0.0], [2.0]]), max_pairs=1, chunk=1)
@example(x=np.full((9, 3), 4.0), max_pairs=7, chunk=5)
@example(x=np.array([[1e200], [-1e200], [1e200]]), max_pairs=10000, chunk=1)
# inf - inf distances are NaN, so np.median is NaN and gamma falls back to 1.0,
# also where the distances around the middle are finite
@example(x=np.array([[np.inf], [np.inf], [0.0]]), max_pairs=10000, chunk=cpd._CHUNK_ELEMENTS)
@example(
    x=np.array([[np.inf], [np.inf]] + [[float(v)] for v in range(10)]),
    max_pairs=10000,
    chunk=cpd._CHUNK_ELEMENTS,
)
@example(
    x=np.array([[-np.inf, 0.0], [-np.inf, 1.0]] + [[float(v), 0.0] for v in range(9)]),
    max_pairs=7,
    chunk=5,
)
def test_median_heuristic_matches_reference(x, max_pairs, chunk):
    # a small chunk splits the sampled pairs into several chunks at any width
    patch = unittest.mock.patch.multiple(cpd, _CHUNK_ELEMENTS=chunk, MEDIAN_PAIRS=max_pairs)
    with patch, np.errstate(invalid="ignore", over="ignore"):
        got = median_heuristic_gamma(x)
        want = reference_median_heuristic_gamma(x, max_pairs=max_pairs)
    assert got == want


@pytest.mark.parametrize("shape", [(50, 300), (365, 9), (70, 2000)])
def test_median_heuristic_matches_reference_wide(shape, monkeypatch):
    # wide signals fill several chunks at the real chunk size
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    for max_pairs in (10000, 97):
        monkeypatch.setattr(cpd, "MEDIAN_PAIRS", max_pairs)
        assert median_heuristic_gamma(x) == reference_median_heuristic_gamma(x, max_pairs)


def reference_gram_prefix(x, gamma):
    """_GramCosts' prefix table as first written: the kernel through
    full-size temporaries, then both cumulative sums copied into the table."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", x, x)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.maximum(d2, 0.0, out=d2)
        gram = np.exp(-gamma * d2)
    n = x.shape[0]
    prefix = np.zeros((n + 1, n + 1))
    prefix[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    if not math.isfinite(prefix[n, n]):
        raise ValueError("kernel matrix is not finite: signal values too large")
    return prefix


@settings(max_examples=40, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 5)),
        # ties and exact zeros
        elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-3, 3)),
        fill=st.nothing(),
    ),
    zero_rows=st.lists(st.integers(0, 29), max_size=10),
    gamma=st.sampled_from([None, 1e-3, 1.0, 1000.0]),
)
@example(x=np.array([[2.0, -1.0]]), zero_rows=[], gamma=None)
@example(x=np.array([[0.0], [1e200]]), zero_rows=[], gamma=1e-3)
@example(x=np.array([[0.0], [1e200]]), zero_rows=[], gamma=1.0)
@example(x=np.array([[0.0], [1e200]]), zero_rows=[], gamma=1000.0)
def test_gram_prefix_matches_reference(x, zero_rows, gamma):
    x = x.copy()
    x[[r % len(x) for r in zero_rows]] = 0.0
    if gamma is None:
        with np.errstate(over="ignore"):
            gamma = median_heuristic_gamma(x)
    try:
        want = reference_gram_prefix(x, gamma)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            _GramCosts(x, gamma)
    else:
        assert _GramCosts(x, gamma)._prefix.tobytes() == want.tobytes()


def test_segment_cost_matches_naive():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 2))
    gamma = 0.7
    for a in range(9):
        for b in range(a + 1, 10):
            assert segment_cost(x, a, b, gamma) == pytest.approx(
                naive_cost(x, a, b, gamma), abs=1e-9
            )


def test_two_sample_cost_is_one_minus_kernel():
    x = np.array([[0.0, 1.0], [2.0, -1.0]])
    gamma = 0.3
    want = 1.0 - rbf_kernel(x[0], x[1], gamma)
    assert segment_cost(x, 0, 2, gamma) == pytest.approx(want)


def test_step_signal_recovered():
    x = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    seg = bottom_up(x, penalty=1e-6)
    assert seg.breakpoints == [3, 6]
    assert seg.change_points == [3]
    assert seg.total_cost == pytest.approx(0.0, abs=1e-12)


def test_constant_signal_single_segment():
    x = np.full(10, 2.5)
    for eps in (0.0, 0.1, 100.0):
        seg = bottom_up(x, penalty=eps)
        assert seg.breakpoints == [10]
        assert not seg.warnings


def test_breakpoint_structure():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2))
    seg = bottom_up(x, penalty=0.5, min_size=3, jump=2)
    bps = seg.breakpoints
    assert bps[-1] == 20
    assert bps == sorted(set(bps))
    prev = 0
    for k in bps[:-1]:
        assert k % 2 == 0  # jump respected
        assert k - prev >= 3  # min_size respected
        prev = k
    assert 20 - prev >= 3


def test_total_cost_is_sum_of_segments():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(15, 1))
    seg = bottom_up(x, penalty=2.0)
    acc = 0.0
    prev = 0
    for k in seg.breakpoints:
        acc += segment_cost(x, prev, k, seg.gamma)
        prev = k
    assert seg.total_cost == pytest.approx(acc, abs=1e-9)


def test_short_signal_degenerate():
    seg = bottom_up(np.array([1.0, 2.0, 3.0]), penalty=0.1, min_size=2)
    assert seg.breakpoints == [3]
    assert seg.warnings and "too short" in seg.warnings[0]


def test_gamma_override():
    x = np.array([0.0, 0.0, 9.0, 9.0])
    seg = bottom_up(x, penalty=0.01, gamma=0.25)
    assert seg.gamma == 0.25
    auto = bottom_up(x, penalty=0.01)
    assert auto.gamma == pytest.approx(median_heuristic_gamma(x.reshape(-1, 1)))


def test_bottom_up_input_validation():
    with pytest.raises(ValueError):
        bottom_up(np.zeros((0, 1)), penalty=1.0)
    with pytest.raises(ValueError):
        bottom_up(np.zeros(5), penalty=-1.0)
    with pytest.raises(ValueError):
        bottom_up(np.zeros(5), penalty=1.0, min_size=0)
    with pytest.raises(ValueError):
        bottom_up(np.zeros(5), penalty=1.0, jump=0)
    # a bandwidth the detection settings refuse; a valid one cuts these steps at 10
    steps = np.repeat([0.0, 1.0], 10)
    assert bottom_up(steps, penalty=0.5, gamma=1.0).breakpoints == [10, 20]
    for gamma in (-1.0, 0.0):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            bottom_up(steps, penalty=0.5, gamma=gamma)


@pytest.mark.parametrize(
    "signal,kwargs,hint",
    [
        ([0.0, 1.0, np.nan, 1.0, 0.0], {}, "non-finite"),
        ([0.0, 1.0, np.inf, 1.0, 0.0], {}, "non-finite"),
        ([0.0, 1.0, 1.0, 0.0], {"gamma": np.nan}, "gamma must be finite"),
        ([0.0, 1.0, 1.0, 0.0], {"gamma": np.inf}, "gamma must be finite"),
        ([0.0, 1.0, 1.0, 0.0], {"penalty": np.nan}, "penalty"),
        ([0.0, 1e200, 0.0, 1e200], {"gamma": 1.0}, "kernel matrix is not finite"),
    ],
)
def test_bottom_up_rejects_non_finite(signal, kwargs, hint):
    """A NaN gain would pick no merge; fail before the search starts."""
    kwargs = {"penalty": 1.0, **kwargs}
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=hint):
        bottom_up(np.array(signal), **kwargs)


def test_bottom_up_total_adds_left_to_right(monkeypatch):
    # from Python 3.12 the builtin sum compensates as fsum does.  The costs
    # depend on the BLAS kernel, so the signal is the first seed on which
    # the two sums of the initial segment costs differ on the running one
    monkeypatch.setattr(cpd, "sum", math.fsum, raising=False)
    for seed in range(40):
        x = np.random.default_rng(seed).normal(size=(60, 2))
        gram = _GramCosts(x, 1.0)
        costs = [gram.cost(a, a + 3) for a in range(0, 60, 3)]
        want = 0.0
        for c in costs:
            want += c
        if math.fsum(costs) != want:
            break
    else:
        pytest.fail("on no seed in 0-39 do the two sums differ")
    assert bottom_up(x, 0.0, jump=3, gamma=1.0).total_cost == want


def test_cpd_config_validation():
    ok = {"epsilon": 10.0, "min_size": 1, "jump": 1, "gamma": None}
    check_settings(**ok)
    check_settings(**ok | {"gamma": 1e-300})
    for bad in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            check_settings(**ok | {"epsilon": bad})
    with pytest.raises(ValueError, match="min_size must be >= 1"):
        check_settings(**ok | {"min_size": 0})
    with pytest.raises(ValueError, match="jump must be >= 1"):
        check_settings(**ok | {"jump": 0})
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            check_settings(**ok | {"gamma": bad})


@settings(max_examples=30, deadline=None)
@given(
    x=arrays(
        np.float64, st.integers(4, 16), elements=st.floats(-3, 3), fill=st.nothing()
    ),
    e1=st.floats(0.0, 2.0),
    e2=st.floats(0.0, 2.0),
)
def test_epsilon_monotone(x, e1, e2):
    lo, hi = sorted((e1, e2))
    fine = bottom_up(x, penalty=lo)
    coarse = bottom_up(x, penalty=hi)
    assert len(coarse.breakpoints) <= len(fine.breakpoints)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.integers(2, 12), elements=st.floats(-3, 3), fill=st.nothing())
)
def test_merge_gains_nonnegative(x):
    # merging adjacent segments can never lower the kernel scatter cost
    gamma = 1.0
    n = len(x)
    for m in range(1, n):
        whole = segment_cost(x, 0, n, gamma)
        parts = segment_cost(x, 0, m, gamma) + segment_cost(x, m, n, gamma)
        assert whole >= parts - 1e-9


def reference_bottom_up(x, penalty, min_size=1, jump=1, gamma=None):
    """The bottom-up search as first written: every pass recomputes the gain
    of every adjacent pair.  Returns (breakpoints, total cost, gamma)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    g = gamma if gamma is not None else median_heuristic_gamma(x)
    costs = _GramCosts(x, g)
    if n < 2 * min_size:
        return [n], costs.cost(0, n), g
    bounds = [0]
    for k in range(jump, n, jump):
        if k - bounds[-1] >= min_size and n - k >= min_size:
            bounds.append(k)
    bounds.append(n)
    seg_cost = {
        (bounds[i], bounds[i + 1]): costs.cost(bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
    }
    total = 0.0
    for cost in seg_cost.values():  # left to right, as bottom_up adds
        total += cost
    while len(bounds) > 2:
        best_gain = math.inf
        best_i = -1
        for i in range(1, len(bounds) - 1):
            a, m, b = bounds[i - 1], bounds[i], bounds[i + 1]
            gain = costs.cost(a, b) - seg_cost[(a, m)] - seg_cost[(m, b)]
            if gain < best_gain:
                best_gain = gain
                best_i = i
        if total + best_gain > penalty:
            break
        a, m, b = bounds[best_i - 1], bounds[best_i], bounds[best_i + 1]
        del seg_cost[(a, m)], seg_cost[(m, b)]
        seg_cost[(a, b)] = costs.cost(a, b)
        total += best_gain
        del bounds[best_i]
    return bounds[1:], total, g


def assert_same_as_reference(x, penalty, min_size, jump, gamma=None):
    seg = bottom_up(x, penalty, min_size=min_size, jump=jump, gamma=gamma)
    breakpoints, total, g = reference_bottom_up(x, penalty, min_size, jump, gamma)
    assert seg.breakpoints == breakpoints
    assert seg.total_cost.hex() == float(total).hex()
    assert seg.gamma == g


grid = st.sampled_from([1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 3)),
        elements=st.floats(-3, 3),
        fill=st.nothing(),
    ),
    penalty=st.floats(0.0, 6.0),
    min_size=grid,
    jump=grid,
)
def test_bottom_up_matches_reference(x, penalty, min_size, jump):
    assert_same_as_reference(x, penalty, min_size, jump)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.integers(0, 2), min_size=1, max_size=40).map(np.array),
    penalty=st.integers(0, 40).map(lambda k: k / 4),
    gamma=st.sampled_from([None, 1.0, 1000.0, 1000.0]),
    min_size=grid,
    jump=grid,
)
@example(x=np.array([0, 1, 0, 1]), penalty=1.0, gamma=1000.0, min_size=1, jump=1)
def test_bottom_up_matches_reference_on_ties(x, penalty, gamma, min_size, jump):
    # few distinct values: many merges have equal gains, exactly so at
    # gamma = 1000, where every kernel value is 0 or 1
    assert_same_as_reference(x, penalty, min_size, jump, gamma)


def test_bottom_up_matches_reference_on_hub_signal():
    # 365 x 8, three distinct rows in runs: the signature of an
    # icews14-cpd-adar hub predicate, whose triangle of actors changes twice.
    # Hundreds of merges inside the runs tie at a gain of 0 and leave stale
    # heap entries behind
    rows = np.zeros((3, 8))
    rows[0, [5, 6, 7]] = rows[1, [2, 3, 6]] = rows[2, [0, 1, 4]] = 1.0
    x = normalize_rows(rows[np.repeat([0, 1, 2], [97, 98, 170])])
    for penalty in (25.0, 0.5):
        for min_size in (1, 2):
            for jump in (1, 2):
                assert_same_as_reference(x, penalty, min_size, jump)
    # at gamma = 1000 every kernel value is 0 or 1 and every cost exact: the
    # grid cell [96, 98) across the first change ties between its two
    # neighbours of 96 samples, and ties going to the smaller boundary keep 98
    assert_same_as_reference(x, 25.0, 1, 2, gamma=1000.0)
