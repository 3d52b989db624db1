"""Kernel change-point detection on multivariate time series.

Signals are (num samples, num features) arrays.  Segment homogeneity is the
kernelized mean-change cost under an RBF kernel: for samples a..b-1,

    cost(a, b) = (b - a) - (1 / (b - a)) * sum_{i,j in [a,b)} k(x_i, x_j)

which is zero for constant segments and grows with within-segment spread.
Breakpoints are estimated bottom-up: start from a fine grid, repeatedly merge
the pair of adjacent segments whose removal raises total cost the least, and
stop when the next merge would push total cost past the penalty threshold.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

# difference elements median_heuristic_gamma holds at once (256 KB)
_CHUNK_ELEMENTS = 1 << 15
# pairs median_heuristic_gamma samples at most
MEDIAN_PAIRS = 10000


def normalize_rows(signal: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows are left untouched."""
    signal = np.asarray(signal, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(signal, axis=1, keepdims=True)
    # squares of values near 1e-160 lose precision and those near 1e160
    # overflow: such a row is first scaled to a largest magnitude of 1
    peak = np.maximum(
        signal.max(axis=1, keepdims=True, initial=0.0),
        -signal.min(axis=1, keepdims=True, initial=0.0),
    )
    rescale = ((norms < 1e-150) | np.isinf(norms)) & (peak > 0.0) & np.isfinite(peak)
    if rescale.any():
        signal = signal / np.where(rescale, peak, 1.0)
        norms = np.where(rescale, np.linalg.norm(signal, axis=1, keepdims=True), norms)
    safe = np.where(norms == 0.0, 1.0, norms)
    return signal / safe


def rbf_kernel(x1: np.ndarray, x2: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||x1 - x2||^2)."""
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.exp(-gamma * float(diff @ diff)))


def median_heuristic_gamma(signal: np.ndarray) -> float:
    """1 / median pairwise squared distance, from at most ``MEDIAN_PAIRS`` pairs.

    Pairs are taken in a fixed order by striding the full (i < j) pair list.
    The median is ``np.median``'s, taken by partition.  Falls back to 1.0 when
    it is zero (constant signal), NaN (a NaN distance, as ``inf - inf`` gives),
    infinite or so small that its inverse overflows, or there are fewer than
    two samples.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        return 1.0
    total = n * (n - 1) // 2
    stride = -(-total // MEDIAN_PAIRS)
    # flat index f of pair (i, j) is start[i] + j - i - 1; only the sampled
    # pairs are computed, a bounded chunk of difference rows at a time
    rows = np.arange(n - 1)
    start = rows * (2 * n - rows - 1) // 2
    flat = np.arange(0, total, stride)
    i = np.searchsorted(start, flat, side="right") - 1
    j = flat - start[i] + i + 1
    step = max(1, _CHUNK_ELEMENTS // max(1, x.shape[1]))
    all_d = np.empty(flat.size)
    for a in range(0, flat.size, step):
        diff = x[j[a : a + step]]
        diff -= x[i[a : a + step]]
        all_d[a : a + step] = np.einsum("ij,ij->i", diff, diff)
    # np.median's steps without its lazy import of numpy.ma: partition at the
    # middle and at the end, where a NaN sorts, and average the middle
    k = all_d.size // 2
    odd = all_d.size % 2
    part = np.partition(all_d, [k, -1] if odd else [k - 1, k, -1])
    med = float(part[k] if odd else np.mean(part[k - 1 : k + 1]))
    if math.isnan(part[-1]) or not 0.0 < med < math.inf or not math.isfinite(1.0 / med):
        return 1.0
    return 1.0 / med


def _check_grid(min_size: int, jump: int, gamma: float | None) -> None:
    """The grid and bandwidth rules; ``gamma=None`` is the median heuristic."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    if jump < 1:
        raise ValueError("jump must be >= 1")
    if gamma is not None and not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")


def check_settings(epsilon: float, min_size: int, jump: int, gamma: float | None) -> None:
    """Detection settings as ``split_cpd`` and ``[transform]`` take them: the
    stop threshold ``epsilon`` must be > 0, not NaN, and the grid and
    bandwidth follow ``bottom_up``'s rules.  A bad one is a ValueError."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    _check_grid(min_size, jump, gamma)


@dataclass
class Segmentation:
    """Result of one detection run.

    ``breakpoints`` are the end indices of each segment, excluding 0 and
    including ``num_samples``; interior values are the change points.
    """

    breakpoints: list[int]
    num_samples: int
    total_cost: float
    gamma: float
    warnings: list[str] = field(default_factory=list)

    @property
    def change_points(self) -> list[int]:
        return self.breakpoints[:-1]


class _GramCosts:
    """Segment costs from a precomputed Gram matrix via 2D prefix sums.

    The kernel is written straight into the prefix table and summed there in
    place, with the same per-element operations as the textbook expression.
    """

    def __init__(self, signal: np.ndarray, gamma: float):
        x = np.asarray(signal, dtype=np.float64)
        n = x.shape[0]
        self._prefix = np.zeros((n + 1, n + 1))
        gram = self._prefix[1:, 1:]
        # overflow shows as a non-finite total below, raised as one error
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.einsum("ij,ij->i", x, x)
            cross = x @ x.T
            cross *= 2.0
            np.add(sq[:, None], sq[None, :], out=gram)
            gram -= cross
            np.maximum(gram, 0.0, out=gram)
            gram *= -gamma
            np.exp(gram, out=gram)
        np.cumsum(gram, axis=0, out=gram)
        np.cumsum(gram, axis=1, out=gram)
        # kernel values are >= 0, so a finite grand total means every prefix
        # sum, cost and merge gain is finite too
        if not math.isfinite(self._prefix[n, n]):
            raise ValueError("kernel matrix is not finite: signal values too large")

    def block_sum(self, a: int, b: int) -> float:
        item = self._prefix.item
        return item(b, b) - 2 * item(b, a) + item(a, a)

    def cost(self, a: int, b: int) -> float:
        length = b - a
        if length <= 0:
            raise ValueError(f"empty segment [{a}, {b})")
        return length - self.block_sum(a, b) / length

    def span_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``cost(a[i], b[i])`` for every i at once, bit for bit."""
        p = self._prefix
        length = (b - a).astype(np.float64)
        return length - (p[b, b] - 2 * p[b, a] + p[a, a]) / length


def bottom_up(
    signal: np.ndarray,
    penalty: float,
    min_size: int = 1,
    jump: int = 1,
    gamma: float | None = None,
) -> Segmentation:
    """Bottom-up kernel change-point detection.

    The initial grid places candidate breakpoints at multiples of ``jump``,
    keeping every segment at least ``min_size`` long.  Adjacent segments are
    merged smallest-gain-first (gain = merged cost minus the two parts'
    costs), taken from a heap in which ties go to the smaller boundary,
    until accepting the next merge would make the total segmentation cost
    exceed ``penalty``.  A NaN or infinite signal, a ``gamma`` that is not
    finite and > 0, or a NaN ``penalty`` is a ValueError.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    _check_grid(min_size, jump, gamma)
    if not penalty >= 0:
        raise ValueError(f"penalty must be >= 0, got {penalty}")
    if not np.isfinite(x).all():
        raise ValueError("signal has non-finite values")

    g = gamma if gamma is not None else median_heuristic_gamma(x)
    costs = _GramCosts(x, g)
    if n < 2 * min_size:
        return Segmentation(
            breakpoints=[n],
            num_samples=n,
            total_cost=costs.cost(0, n),
            gamma=g,
            warnings=[f"signal too short to split ({n} < 2*min_size)"],
        )

    # all grid points at multiples of jump that leave min_size on each side
    bounds = [0]
    for k in range(jump, n, jump):
        if k - bounds[-1] >= min_size and n - k >= min_size:
            bounds.append(k)
    bounds.append(n)

    ends = np.array(bounds)
    seg_costs = costs.span_costs(ends[:-1], ends[1:])
    # added left to right: from Python 3.12 the builtin sum compensates, and
    # a total one ulp off can stop the merges at another step
    total = float(np.cumsum(seg_costs)[-1])
    merged_costs = costs.span_costs(ends[:-2], ends[2:])
    gains = merged_costs - seg_costs[:-1] - seg_costs[1:]

    # keyed by boundary: seg[a] is the cost of the segment that starts at a;
    # merged[k] and gain[k] are the cost of the segment that dropping interior
    # boundary k makes and what that adds to the total.  A merge changes only
    # its two neighbours' entries and pushes them again; an entry whose gain
    # is no longer gain[k] is stale.  The heap orders (gain, boundary), so
    # ties go to the smaller boundary.
    seg = dict(zip(bounds, seg_costs.tolist()))
    merged = dict(zip(bounds[1:-1], merged_costs.tolist()))
    gain = dict(zip(bounds[1:-1], gains.tolist()))
    prev = dict(zip(bounds[1:], bounds))
    nxt = dict(zip(bounds, bounds[1:]))
    heap = list(zip(gains.tolist(), bounds[1:-1]))
    heapq.heapify(heap)
    while heap:
        best_gain, k = heapq.heappop(heap)
        if gain.get(k) != best_gain:
            continue
        if total + best_gain > penalty:
            break
        left, right = prev.pop(k), nxt.pop(k)
        seg[left] = merged.pop(k)
        del seg[k], gain[k]
        nxt[left], prev[right] = right, left
        total += best_gain
        for j in (left, right):
            if j in gain:
                merged[j] = costs.cost(prev[j], nxt[j])
                gain[j] = merged[j] - seg[prev[j]] - seg[j]
                heapq.heappush(heap, (gain[j], j))

    return Segmentation(breakpoints=list(prev), num_samples=n, total_cost=total, gamma=g)
