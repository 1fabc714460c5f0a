"""Density evolution through the polar computation trees.

For the three-level decoder the message law is a triple (p, e, m) and both
tree transforms have closed forms; for a general uniform quantizer the law
is a finite mass function over the quantizer alphabet and the transforms are
exact push-forwards over the |Q|^2 input pairs.

The triple closed forms are written once, in ``_double_level``, which the
scalar transforms, ``synthesize_triples`` and the bounds module all call.
It puts the check (minus) children of a level first and the variable
(plus) children second; ``synthesize`` keeps the same layout, and both end
with one bit-reversal gather into index order (``_index_order``).  The
finite-alphabet pair transforms are written once, in ``_de_*_vec``, and
batch blocks of rows.  The variable step keeps one ``np.convolve`` per row,
whose order of summation batched numpy does not reproduce, and batches only
the tail folds, bit for bit.  The check step of two different laws sums all
|Q|^2 pairs, bit for bit what one row at a time gives.  In ``synthesize``
both laws of the check step are the same, and it sums each pair of input
magnitudes once, by the sign of the pair (``_de_self_check``): about a
quarter of the terms, in another order of rounding, with no cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import LlrDensity, TripleDensity, _error_rate_arrays, _sign_masses
from .codec import _check_index_table
from .quantizer import QuantizerSpec, levels


class ResourceCeilingError(RuntimeError):
    """Requested synthesis exceeds the fixed work budget."""


# most input pairs one check-step bincount takes at once (at least one row)
_PAIR_BLOCK = 1 << 16
_OP_BUDGET = 1e12  # largest |Q|^2 N log N that ``synthesize`` accepts


# ---------------------------------------------------------------------------
# three-level transforms

def _double_level(p, e, m):
    """Both children of every state on the last axis, which doubles.

    Check children (``triple_minus``) fill its first half and variable
    children (``triple_plus``) its second half, each in the parents' order.
    Erasure masses are complements 1 - p' - m', which keeps p + e + m
    pinned at 1 through deep recursions.
    """
    width = p.shape[-1]
    shape = p.shape[:-1] + (2 * width,)
    minus, plus = np.s_[..., :width], np.s_[..., width:]
    p2 = p * p
    m2 = m * m
    new_p = np.empty(shape)
    new_e = np.empty(shape)
    new_m = np.empty(shape)
    # check (minus) children; the doubled products are (2p)m, (2p)e and
    # (2e)m, since (pm)2 rounds before doubling and moves subnormal masses
    twice_p = 2.0 * p
    np.add(p2, m2, out=new_p[minus])
    np.multiply(twice_p, m, out=new_m[minus])
    np.subtract(1.0, new_p[minus], out=new_e[minus])
    new_e[minus] -= new_m[minus]
    # variable (plus) children
    twice_p *= e
    np.add(p2, twice_p, out=new_p[plus])
    em2 = 2.0 * e
    em2 *= m
    np.add(m2, em2, out=new_m[plus])
    np.subtract(1.0, new_p[plus], out=new_e[plus])
    new_e[plus] -= new_m[plus]
    np.maximum(new_e, 0.0, out=new_e)
    return new_p, new_e, new_m


def _child(d: TripleDensity, b: int) -> TripleDensity:
    """Child ``b`` of ``d``: 0 for the check transform, 1 for the variable one."""
    p, e, m = _double_level(*d.as_array()[:, None])
    return TripleDensity(float(p[b]), float(e[b]), float(m[b]))


def triple_plus(d: TripleDensity) -> TripleDensity:
    """Law of the variable-node output for two i.i.d. copies of ``d``.

    (p, e, m) -> (p^2 + 2pe, e^2 + 2pm, m^2 + 2em)
    """
    return _child(d, 1)


def triple_minus(d: TripleDensity) -> TripleDensity:
    """Law of the check-node output for two i.i.d. copies of ``d``.

    (p, e, m) -> (p^2 + m^2, 1 - (1-e)^2, 2pm)
    """
    return _child(d, 0)


def evolve_triple(d0: TripleDensity, path) -> TripleDensity:
    """Fold the transforms along a tree path b1..bn, level 1 first.

    bj = 1 selects the variable (plus) transform, bj = 0 the check (minus)
    transform.
    """
    d = d0
    for b in path:
        d = _child(d, 1 if b else 0)
    return d


# ---------------------------------------------------------------------------
# finite-alphabet transforms

def _density_vector(d: LlrDensity, spec: QuantizerSpec) -> np.ndarray:
    """Mass vector of ``d`` indexed by the alphabet of ``spec``.

    Raises if any atom with positive mass lies outside the alphabet.
    """
    grid = levels(spec)
    vec = np.zeros(spec.n_levels)
    idx = np.searchsorted(grid, d.alphabet)
    ok = (idx < grid.size) & (grid[np.minimum(idx, grid.size - 1)] == d.alphabet)
    if np.any(~ok & (d.probs > 0.0)):
        raise ValueError("density has mass outside the quantizer alphabet")
    np.add.at(vec, idx[ok], d.probs[ok])
    return vec


def de_var(d1: LlrDensity, d2: LlrDensity, spec: QuantizerSpec) -> LlrDensity:
    """Law of Q(X + Y) for independent X ~ d1, Y ~ d2 on the alphabet of ``spec``."""
    rows = _de_var_vec(_density_vector(d1, spec)[None, :],
                       _density_vector(d2, spec)[None, :], spec)
    return LlrDensity(levels(spec), rows[0])


def de_check(d1: LlrDensity, d2: LlrDensity, spec: QuantizerSpec) -> LlrDensity:
    """Law of Q(2 atanh(tanh(X/2) tanh(Y/2))) by full pair enumeration.

    The two laws are always summed over all |Q|^2 pairs, even when equal;
    only ``synthesize``, which pairs a law with itself, sums by magnitude.
    """
    rows = _de_check_vec(_density_vector(d1, spec)[None, :],
                         _density_vector(d2, spec)[None, :], spec)
    return LlrDensity(levels(spec), rows[0])


def _de_var_vec(rows: np.ndarray, others: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Variable-node law of each row of ``rows`` with the same row of ``others``.

    Sums of alphabet levels are again multiples of delta, so each row is a
    discrete convolution whose tails fold onto the saturation levels.  The
    convolutions stay one ``np.convolve`` per row: its BLAS dot products fix
    an order of summation that no batched numpy form reproduces, and the
    batched forms measured (shift loop, pair table, sliding window) were
    slower anyway: at the deepest level of n = 16 on a 2-core machine with
    one BLAS thread, 0.44-0.72 s against 0.38 s at |Q| = 65, and 0.14-0.51 s
    against 0.011 s at |Q| = 2001.  Only the tail folds are batched.
    """
    k = spec.half_levels
    conv = np.empty((rows.shape[0], 4 * k + 1))  # column j: sum (j - 2k) * delta
    for i, (row, other) in enumerate(zip(rows, others)):
        conv[i] = np.convolve(row, other)
    out = conv[:, k:3 * k + 1]
    out[:, 0] += conv[:, :k].sum(axis=1)
    out[:, -1] += conv[:, 3 * k + 1:].sum(axis=1)
    return out


def _de_check_vec(rows: np.ndarray, others: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Check-node law of each row of ``rows`` with the same row of ``others``.

    Two different laws take the full pair sum: rows go in blocks of at most
    ``_PAIR_BLOCK`` pairs, one ``bincount`` a block over the indices
    q * row + table.  That is bit-identical to one
    ``bincount(table, outer(row, other).ravel())`` per row: ``bincount``
    adds the weights into zeroed bins in input order, the rows' bins are
    disjoint, and each row's products come in the order of its outer
    product, so every bin sums the same terms in the same order.

    When ``others is rows`` each law is paired with itself, and
    ``_de_self_check`` sums about a quarter as many terms, in another order.
    """
    q = spec.n_levels
    step = max(1, _PAIR_BLOCK // (q * q))
    if others is rows:
        return _de_self_check(rows, spec, step)
    index = (q * np.arange(step, dtype=np.int64))[:, None] + _check_index_table(spec).ravel()
    out = np.empty_like(rows)
    for start in range(0, rows.shape[0], step):
        r = rows[start:start + step]
        o = others[start:start + step]
        size = r.shape[0]
        pairs = r[:, :, None] * o[:, None, :]
        out[start:start + size] = np.bincount(index[:size].ravel(), weights=pairs.ravel(),
                                              minlength=size * q).reshape(size, q)
    return out


@functools.lru_cache(maxsize=8)
def _magnitude_pairs(spec: QuantizerSpec, step: int):
    """Gather and bin indices of ``_de_self_check`` for blocks of ``step`` rows.

    The pairs are the magnitudes 1 <= i <= j <= k, the diagonal first.
    ``gather[:, row]`` holds the flat positions q * row + k +- i and
    q * row + k +- j of each pair, in the order +i, -i, +j, -j; ``same``
    and ``opposite`` hold the flat bins q * row + k +- T[i, j], with T the
    magnitude quadrant of ``_check_index_table``, less k.
    """
    k, q = spec.half_levels, spec.n_levels
    upper_i, upper_j = np.triu_indices(k, 1)
    i = np.concatenate([np.arange(1, k + 1), upper_i + 1])
    j = np.concatenate([np.arange(1, k + 1), upper_j + 1])
    level = _check_index_table(spec)[k + i, k + j] - k
    middle = (q * np.arange(step, dtype=np.int64) + k)[:, None]
    gather = np.stack([middle + i, middle - i, middle + j, middle - j])
    return gather, middle + level, middle - level


def _de_self_check(rows: np.ndarray, spec: QuantizerSpec, step: int) -> np.ndarray:
    """Check-node law of each row of ``rows`` with an independent copy of itself.

    The combine's magnitude depends only on the input magnitudes and its
    sign is the product of the input signs (``_check_index_table``), so with
    P+_i and P-_i the masses at +-i delta, the pair of magnitudes i <= j
    sends P+_i P+_j + P-_i P-_j to level +T[i, j] and P+_i P-_j + P-_i P+_j
    to level -T[i, j], both doubled off the diagonal, where i and j swap.
    Every weight is nonnegative, so no sum cancels.  A zero input gives a
    zero output: with z the mass at 0 and s the mass off it, those pairs
    add z^2 + 2 z s to level 0, which is z(2 - z) for a law of mass 1.
    Rows go in the full pair sum's blocks of ``step`` rows, one ``take`` and
    two ``bincount`` a block.
    """
    k, q = spec.half_levels, spec.n_levels
    gather, same_bins, opposite_bins = _magnitude_pairs(spec, step)
    out = np.empty_like(rows)
    for start in range(0, rows.shape[0], step):
        r = rows[start:start + step]
        size = r.shape[0]
        plus_i, minus_i, plus_j, minus_j = r.take(gather[:, :size])
        same = plus_i * plus_j
        same += minus_i * minus_j
        opposite = plus_i * minus_j
        opposite += minus_i * plus_j
        same[:, k:] *= 2.0
        opposite[:, k:] *= 2.0
        block = np.bincount(same_bins[:size].ravel(), weights=same.ravel(), minlength=size * q)
        block += np.bincount(opposite_bins[:size].ravel(), weights=opposite.ravel(),
                             minlength=size * q)
        out[start:start + size] = block.reshape(size, q)
    zero = rows[:, k]
    off_zero = rows[:, :k].sum(axis=1) + rows[:, k + 1:].sum(axis=1)
    out[:, k] += zero * (zero + 2.0 * off_zero)
    return out


# ---------------------------------------------------------------------------
# synthesized families

@dataclass
class SynthesizedFamily:
    """Root-message laws of all N = 2**n tree channels, in index order.

    ``kind`` is "triple" (rows of (p, e, m)) or "quantized" (rows of masses
    over ``alphabet``).
    """

    n: int
    kind: str
    data: np.ndarray
    alphabet: np.ndarray | None = None

    @property
    def block_length(self) -> int:
        return 1 << self.n

    def density(self, i: int):
        if self.kind == "triple":
            p, e, m = self.data[i]
            return TripleDensity(float(p), float(e), float(m))
        return LlrDensity(self.alphabet, self.data[i])

    def error_probs(self) -> np.ndarray:
        """Pr(root < 0) + Pr(root = 0)/2 for every index."""
        if self.kind == "triple":
            return _error_rate_arrays(*self.data.T)
        return _error_rate_arrays(*_sign_masses(self.alphabet, self.data))

    def csv_rows(self):
        """Rows (index, p_err[, p, e, m]) with 10 significant digits."""
        perr = self.error_probs()
        if self.kind == "triple":
            yield "index,p_err,p,e,m"
            for i in range(self.block_length):
                p, e, m = self.data[i]
                yield f"{i},{perr[i]:.10g},{p:.10g},{e:.10g},{m:.10g}"
        else:
            yield "index,p_err"
            for i in range(self.block_length):
                yield f"{i},{perr[i]:.10g}"


def _index_order(block: np.ndarray) -> np.ndarray:
    """Rows of a level-doubled block layout, minus block first, in index order.

    A block position holds its path bits newest first and an index holds
    them oldest first, so index i is the row at bit-reversed i.
    """
    n = block.shape[0].bit_length() - 1
    return block[np.arange(1 << n).reshape((2,) * n).transpose().ravel()]


def synthesize_triples(d0: TripleDensity, n: int) -> SynthesizedFamily:
    """Evolve the three-level law to all N tree channels by level doubling."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, e, m = d0.as_array()[:, None]
    for _ in range(n):
        p, e, m = _double_level(p, e, m)
    return SynthesizedFamily(n=n, kind="triple", data=_index_order(np.stack([p, e, m], axis=1)))


def synthesize(d0: LlrDensity, n: int, spec: QuantizerSpec) -> SynthesizedFamily:
    """Finite-alphabet density evolution to all N tree channels.

    ``d0`` must already be supported on the alphabet of ``spec`` (quantize it
    first).  The call raises before any work if |Q|^2 N log N (log N at
    least 1) exceeds ``_OP_BUDGET``; the pair enumerations themselves total
    about 2 |Q|^2 N.  Each level's rows are divided by their sums, so that
    rounding cannot accumulate over the levels into a mass defect.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cost = float(spec.n_levels) ** 2 * (1 << n) * max(n, 1)
    if cost > _OP_BUDGET:
        raise ResourceCeilingError(
            f"|Q|^2 N log N = {cost:.3g} exceeds the budget {_OP_BUDGET:.3g}; "
            "use a coarser quantizer or a smaller n")
    rows = _density_vector(d0, spec)[None, :]
    for _ in range(n):
        rows = np.concatenate([_de_check_vec(rows, rows, spec), _de_var_vec(rows, rows, spec)])
        rows /= rows.sum(axis=1, keepdims=True)
    return SynthesizedFamily(n=n, kind="quantized", data=_index_order(rows),
                             alphabet=levels(spec))


def bit_error_prob(density) -> float:
    """Pr(message < 0) + Pr(message = 0)/2 for a root-message law."""
    if isinstance(density, TripleDensity):
        return float(_error_rate_arrays(density.p, density.e, density.m))
    return density.error_prob()


def choose_info_set(family: SynthesizedFamily, k: int) -> np.ndarray:
    """The ``k`` indices with the smallest error probability, ascending.

    Exact ties are broken toward the smaller index so constructions are
    reproducible.  Near-ties are not: error probabilities that differ only
    by rounding (1e-14 to 1e-12 relative) are ordered by that rounding, so
    any change in the order DE sums its terms can move the chosen set.
    Summing the check step's self-pairs by magnitude instead of over all
    pairs moved error probabilities by up to 1.8e-13 relative (BAWGN at
    capacity 1/2, n = 16), and so moved chosen sets between indices whose
    error probabilities agreed to a few ulps: mostly among those within
    1e-12 of 1/2, the rest among tiny ones (1e-176 to 1e-55) at n = 16.
    """
    if not (0 <= k <= family.block_length):
        raise ValueError(f"k must be in [0, {family.block_length}], got {k}")
    order = np.argsort(family.error_probs(), kind="stable")
    return np.sort(order[:k])


def rate_for_union_bound(family: SynthesizedFamily, target: float) -> int:
    """Largest k whose k best indices have summed error probability <= target.

    A target that is nan or infinite names no error budget and is refused.
    """
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    perr = np.sort(family.error_probs())
    return int(np.searchsorted(np.cumsum(perr), target, side="right"))


def gallager_trajectory(q0: float, path) -> np.ndarray:
    """Single-bit (Gallager) decoder state along a tree path.

    The state is the message error probability: a check level maps
    q -> 2q(1-q) and a variable level leaves q unchanged (two-input majority
    with a fair-coin tie equals q algebraically).  The trajectory never
    decreases, which is why this decoder has threshold zero.
    """
    if not (0.0 <= q0 <= 0.5):
        raise ValueError(f"q0 must be in [0, 1/2], got {q0}")
    out = np.empty(len(path) + 1)
    out[0] = q = q0
    for j, b in enumerate(path, start=1):
        if not b:
            q = 2.0 * q * (1.0 - q)
        out[j] = q
    return out
