"""Convergent bounds on the achievable rate of the three-level decoder.

The mutual information of the message triple is a supermartingale of the
polarization process and F(D) = p - 4 sqrt(pm) is a submartingale with
F(1,0,0) = 1 and F(0,1,0) = 0, so the level averages

    U_n = mean over all 2^n sign paths of I(D_path)
    L_n = mean over all 2^n sign paths of F(D_path)

bracket the maximum achievable rate and converge to it.  The averages are
computed by exact level doubling with no state merging, so they are stable
across platforms to well below the reported precision.

One engine, ``_walk_levels``, walks the 2^n states of a starting triple.
It doubles whole levels until a level holds one block of ``_BLOCK``
states, then finishes each block depth-first, so memory is O(n * block)
rather than O(2^n).  Each level's sums of F, max(F, 0) and I are added
block by block in that order; the means therefore match a whole-level
average only to the last bits, which can move when the block size does.

Walks from different starting triples are independent, so ``_walk_all``
runs them on a thread pool of ``_WORKERS`` threads (the cores this process
may use, capped at the number of walks): the ``e_grid`` walks of a
universal point, and the capacity points of a ``bec``, ``bsc`` or
``bawgn`` curve.  numpy releases the GIL inside its array operations, but
only once a walk holds more than one block (2^n > ``_BLOCK``) do those
operations outweigh the per-operation Python work that holds it; below
that the walks run serially.  Each worker holds one walk's block stack,
so peak memory is O(workers * n * block).  Each walk computes exactly
what it computes alone, and its row is collected in input order before
the minimum or the rows are taken, so no output depends on the worker
count.

``curve`` emits the tighter lower bound E max(F(D_n), 0), clamped per state.
It is sound because the rate R(D) of any state is the exact mean of its two
children's rates, and R(D) >= F(D) (the bound above with D as root) and
R(D) >= 0 hold for every state, so R(D_0) = E R(D_n) >= E max(F(D_n), 0).
``bounds_series`` and ``universal_lower_bound`` keep the paper's E F(D_n).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .channels import (
    BAWGN,
    BEC,
    BSC,
    TripleDensity,
    _bhattacharyya_arrays,
    _mutual_info_arrays,
    binary_entropy,
)
from .density_evolution import _double_level

ENUMERATION_CEILING = 22

_BLOCK = 1 << 14  # states doubled at once past the breadth-first levels; bounds peak memory
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # threads for independent walks

CURVE_FAMILIES = ("bec", "bsc", "bawgn", "universal")


def lower_functional(d: TripleDensity) -> float:
    """The submartingale functional F(D) = p - 4 sqrt(pm)."""
    return float(_lower_functional_arrays(d.p, d.e, d.m))


def _lower_functional_arrays(p, e, m):
    return p - 4.0 * np.sqrt(p * m)


def bhattacharyya_step_check(d: TripleDensity) -> tuple[bool, bool]:
    """Whether Z(D-) <= 2 Z(D) and Z(D+) <= 2 Z(D)^(3/2) hold for ``d``.

    Both inequalities drive the block-error exponent; each is reported with
    a -1e-12 slack so exact equalities pass.
    """
    state = d.as_array()[:, None]
    z = _bhattacharyya_arrays(*state)
    z_minus, z_plus = _bhattacharyya_arrays(*_double_level(*state))
    return bool(z_minus <= 2.0 * z + 1e-12), bool(z_plus <= 2.0 * z**1.5 + 1e-12)


@dataclass(frozen=True)
class BoundsSeries:
    """Lower/upper bound sequences L_0..L_n and U_0..U_n."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(np.diff(lower) < -1e-12):
            raise ValueError("lower bounds must be non-decreasing")
        if np.any(np.diff(upper) > 1e-12):
            raise ValueError("upper bounds must be non-increasing")
        if np.any(lower > upper + 1e-12):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_max(self) -> int:
        return self.lower.size - 1

    def csv_rows(self):
        yield "n,L_n,U_n"
        for j in range(self.lower.size):
            yield f"{j},{self.lower[j]:.10g},{self.upper[j]:.10g}"


def _walk_levels(p0, e0, m0, n: int, first: int) -> np.ndarray:
    """Rows (E F(D_j), E max(F(D_j), 0), E I(D_j)) for j = 0..n from one triple.

    Rows below ``first`` are not evaluated and hold nan; the module docstring
    describes the traversal.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sums = np.zeros((n + 1, 3))

    def walk(j, p, e, m):
        if j >= first:
            f = _lower_functional_arrays(p, e, m)
            sums[j] += (f.sum(), np.maximum(f, 0.0).sum(), _mutual_info_arrays(p, e, m).sum())
        if j < n:
            children = _double_level(p, e, m)
            for start in range(0, children[0].shape[1], _BLOCK):
                walk(j + 1, *(c[:, start:start + _BLOCK] for c in children))

    walk(0, *(np.full((1, 1), x, dtype=float) for x in (p0, e0, m0)))
    del walk  # it holds itself through its closure, and with it ``sums``, until collected
    sums[:first] = np.nan
    return sums / 2.0 ** np.arange(n + 1)[:, None]


def _walk_all(starts, n: int) -> list[np.ndarray]:
    """Level-n rows of ``_walk_levels`` for each (p, e, m) in ``starts``, in order.

    The walks share a thread pool when each holds more than one block.
    """
    def work(start):
        return _walk_levels(*start, n, n)[n]

    workers = min(_WORKERS, len(starts))
    if workers > 1 and 2**n > _BLOCK:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, starts))
    return [work(start) for start in starts]


def bounds_series(d0: TripleDensity, n_max: int) -> BoundsSeries:
    """Exact L_0..L_n_max and U_0..U_n_max for the starting triple ``d0``."""
    if n_max > ENUMERATION_CEILING:
        raise ValueError(
            f"n_max={n_max} exceeds the enumeration ceiling {ENUMERATION_CEILING}; "
            "use bounds_series_mc for deeper levels")
    means = _walk_levels(d0.p, d0.e, d0.m, n_max, 0)
    return BoundsSeries(lower=means[:, 0], upper=means[:, 2])


def _bracketed_series(d0: TripleDensity, tol: float, n_ceiling: int) -> BoundsSeries:
    """``bounds_series(d0, n_ceiling)`` up to its first level with gap <= ``tol``."""
    if not tol > 0.0:  # also refuses nan
        raise ValueError("tol must be positive")
    series = bounds_series(d0, n_ceiling)
    tight = np.flatnonzero(series.upper - series.lower <= tol)
    j = int(tight[0]) if tight.size else n_ceiling
    return BoundsSeries(lower=series.lower[:j + 1], upper=series.upper[:j + 1])


def bracket_capacity(d0: TripleDensity, tol: float, n_ceiling: int = ENUMERATION_CEILING
                     ) -> tuple[float, float, int]:
    """Bracket the achievable rate to width ``tol`` if reachable.

    Returns (lower, upper, n_used) at the smallest level whose gap is at
    most ``tol``, or the bracket at ``n_ceiling`` when the gap never closes
    within the ceiling (reported, not an error).  One walk to ``n_ceiling``
    computes every level, after ``tol`` and the ceiling are checked.
    """
    series = _bracketed_series(d0, tol, n_ceiling)
    return float(series.lower[-1]), float(series.upper[-1]), series.n_max


class McBounds(NamedTuple):
    lower: float
    upper: float
    lower_radius: float
    upper_radius: float


def bounds_series_mc(d0: TripleDensity, n: int, samples: int, seed: int) -> McBounds:
    """Monte Carlo estimate of (L_n, U_n) from uniformly drawn sign paths.

    Unbiased sample means with 95% normal-approximation radii; intended for
    levels beyond the enumeration ceiling.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    rng = np.random.default_rng(seed)
    p, e, m = np.repeat(d0.as_array()[:, None], samples, axis=1)
    column = np.arange(samples)
    for _ in range(n):
        # child b of sample s sits at b * samples + s
        pick = rng.integers(0, 2, size=samples) * samples + column
        p, e, m = (x[pick] for x in _double_level(p, e, m))
    f = _lower_functional_arrays(p, e, m)
    i = _mutual_info_arrays(p, e, m)
    z95 = 1.959963984540054
    scale = z95 / math.sqrt(samples)
    return McBounds(lower=float(f.mean()), upper=float(i.mean()),
                    lower_radius=float(f.std(ddof=1) * scale),
                    upper_radius=float(i.std(ddof=1) * scale))


# ---------------------------------------------------------------------------
# universal bound and capacity curves

def _constraint_family(capacity: float, e_grid: int) -> tuple[np.ndarray, ...]:
    """Triples with error rate pinned at (1 - capacity)/2, swept over e."""
    if e_grid < 1:
        raise ValueError(f"e_grid must be at least 1, got {e_grid}")
    err = (1.0 - capacity) / 2.0
    es = np.linspace(0.0, 2.0 * err, e_grid)
    ps = 1.0 - err - es / 2.0
    ms = np.maximum(err - es / 2.0, 0.0)
    return ps, es, ms


def _family_minima(capacity: float, e_grid: int, n: int) -> np.ndarray:
    """Column minima of the level-n means over the pinned-error-rate family."""
    return np.min(_walk_all(list(zip(*_constraint_family(capacity, e_grid))), n), axis=0)


def _universal_bracket(capacity: float, e_grid: int, n: int) -> tuple[float, float]:
    """(min_e E F(D_n), min_e E I(D_n)) over the pinned-error-rate family."""
    lower, _, upper = _family_minima(capacity, e_grid, n)
    return float(lower), float(upper)


def universal_lower_bound(capacity: float, e_grid: int, n: int) -> float:
    """Channel-independent lower value on the achievable rate at ``capacity``.

    Every channel of capacity I has error rate at most (1 - I)/2, so the
    infimum of the achievable rate over triples with that exact error rate
    lower-bounds every such channel; L_n lower-bounds each member.  Clamped
    at 0 since rates are nonnegative.

    The value is the minimum of L_n over the ``e_grid`` sampled triples of
    that family, not a proven lower bound on its infimum: between grid
    points L_n can be lower (at capacity 0.3 and n = 14 a 400-point grid
    gives 0.032850 where 33 points give 0.032858).

    This keeps the paper's L_n = E F(D_n), clamped only after averaging, so
    its value can sit below the lower column of ``curve("universal", ...)``
    for the same arguments, which clamps F per state.
    """
    if not (0.0 <= capacity <= 1.0):
        raise ValueError(f"capacity must be in [0, 1], got {capacity}")
    lower, _ = _universal_bracket(capacity, e_grid, n)
    return max(lower, 0.0)


def _bsc_for_capacity(target: float) -> BSC:
    if target >= 1.0 - 1e-12:
        return BSC(0.0)
    if target <= 1e-12:
        return BSC(0.5)
    eps = brentq(lambda x: (1.0 - binary_entropy(x)) - target, 1e-15, 0.5,
                 xtol=1e-15, rtol=8.9e-16)
    return BSC(eps)


def _bawgn_for_capacity(target: float) -> BAWGN:
    lo, hi = 0.05, 60.0
    probe = BAWGN(lo).capacity()
    if target >= probe:
        return BAWGN(lo)
    sigma = brentq(lambda s: BAWGN(s).capacity() - target, lo, hi, xtol=1e-9)
    return BAWGN(sigma)


def _capacity_grid(points: int, cap_min: float, cap_max: float) -> np.ndarray:
    if points < 1:
        raise ValueError("points must be at least 1")
    if not (0.0 <= cap_min and cap_max <= 1.0):
        raise ValueError(f"capacities must lie in [0, 1], got cap_min={cap_min}, "
                         f"cap_max={cap_max}")
    if points == 1:
        return np.array([cap_max])
    return np.linspace(cap_min, cap_max, points)


def curve(family: str, points: int, n: int, *, cap_min: float = 0.01,
          cap_max: float = 0.99, e_grid: int = 33) -> list[tuple[float, float, float]]:
    """Rows (capacity, lower, upper) of the achievable-rate curve.

    ``family`` selects the channel family swept over a uniform capacity
    grid: the erasure family (where the three-level decoder is exact, so
    lower = upper = capacity), the binary symmetric family, the
    binary-input AWGN family, or the channel-independent universal bound.
    Family parameters are solved to each grid capacity by root bracketing
    to 1e-9.

    The lower column is E max(F(D_n), 0), clamped per state rather than
    after averaging.  A state's rate is the exact mean of its children's
    rates and is at least both F(D) and 0, so the root rate E R(D_n) is at
    least E max(F(D_n), 0).  The upper column is the paper's U_n.  The
    universal columns are the minima of both over the ``e_grid`` sampled
    triples of the pinned-error-rate family; the upper one bounds the
    family's infimum from above, but the lower one is not a proven lower
    bound on it, since members between grid points can sit lower.

    The family parameters are solved serially.  When 2^n > ``_BLOCK``, the
    walks then run concurrently on ``_WORKERS`` threads: a family curve's
    capacity points, or a universal point's ``e_grid`` triples (points one
    after another).  Below one block each walk is mostly per-operation
    Python work, which holds the GIL, so the walks run serially.  Peak
    memory is O(workers * n * ``_BLOCK``).  Every walk's row is computed as
    it would be alone and collected in input order, so the rows are the
    same for every worker count.
    """
    if family not in CURVE_FAMILIES:
        raise ValueError(f"family must be one of {CURVE_FAMILIES}, got {family!r}")
    if e_grid < 1:
        raise ValueError(f"e_grid must be at least 1, got {e_grid}")
    caps = [float(cap) for cap in _capacity_grid(points, cap_min, cap_max)]
    if family == "universal":
        means = [_family_minima(cap, e_grid, n) for cap in caps]
    else:
        solve = {"bec": lambda cap: BEC(1.0 - cap), "bsc": _bsc_for_capacity,
                 "bawgn": _bawgn_for_capacity}[family]
        means = _walk_all([solve(cap).triple().as_array() for cap in caps], n)
    return [(cap, float(row[1]), float(row[2])) for cap, row in zip(caps, means)]
