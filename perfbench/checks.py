"""Correctness references computed apart from polarq, and the checks that use them.

Nothing here calls the program: closed forms, quadrature and sampled paths
are written out from the paper's definitions, so a fault in the program
cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

# Family-wise false-alarm level of each binomial check (Bonferroni over the
# indices tested).  The counts are exactly binomial on a correct program, so
# a correct run is refused with probability at most this, per decoder.
FAMILY_ALPHA = 1e-5

# Half-width of the sampled-path acceptance interval, in standard errors.
# Two-sided normal tail at 5 is 5.7e-7 per comparison.
Z_SAMPLED = 5.0

# LlrDensity's mass tolerance: a row is a probability vector when every
# entry is >= -1e-15 and the entries sum to 1 within 1e-12.
MASS_TOL = 1e-12
NEGATIVE_TOL = 1e-15

_LN2 = math.log(2.0)
_PVALUE_BLOCK = 1 << 22  # pmf entries evaluated at once, bounds memory


# ---------------------------------------------------------------------------
# binomial counts


def binomial_pvalues(counts, trials: int, probs) -> np.ndarray:
    """Exact two-sided binomial p-values, one per index.

    The p-value of count k under Binomial(trials, p) is the total mass of the
    outcomes no more likely than k (the rule of ``scipy.stats.binomtest``,
    with its relative slack of 1e-7), vectorised over the indices.
    """
    counts = np.asarray(counts, dtype=np.int64)
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    outcomes = np.arange(trials + 1)
    out = np.empty(counts.size)
    block = max(1, _PVALUE_BLOCK // (trials + 1))
    for start in range(0, counts.size, block):
        sl = slice(start, start + block)
        pmf = stats.binom.pmf(outcomes[None, :], trials, probs[sl, None])
        observed = pmf[np.arange(pmf.shape[0]), counts[sl]]
        out[sl] = np.where(pmf <= observed[:, None] * (1.0 + 1e-7), pmf, 0.0).sum(axis=1)
    return np.minimum(out, 1.0)


def binomial_check(counts, trials: int, probs):
    """Bonferroni-corrected exact binomial test of per-index error counts.

    Returns (passed, indices rejected, smallest adjusted p-value).
    """
    adjusted = np.minimum(binomial_pvalues(counts, trials, probs) * np.size(counts), 1.0)
    rejected = int(np.count_nonzero(adjusted < FAMILY_ALPHA))
    return rejected == 0, rejected, float(adjusted.min())


def all_check_error(eps: float, size: int) -> float:
    """Error probability of index 0 of exact SC on BSC(eps): a parity of ``size`` flips."""
    return (1.0 - (1.0 - 2.0 * eps) ** size) / 2.0


def all_var_error(eps: float, size: int) -> float:
    """Error probability of index N-1 of exact SC on BSC(eps) with a genie.

    The root statistic is the sum of all ``size`` channel LLRs, so the
    decision is a majority vote over the flips, with ties decided by a coin.
    """
    half = size // 2
    err = stats.binom.sf(half, size, eps)
    if size % 2 == 0:
        err += 0.5 * stats.binom.pmf(half, size, eps)
    return float(err)


# ---------------------------------------------------------------------------
# mutual information and capacity


def symmetric_information(rows) -> np.ndarray:
    """I(X; L) in bits for message laws over an antisymmetric alphabet.

    ``rows`` holds the law of the message under input 0, last axis in
    alphabet order; under input 1 the message has the mirrored law.  So
    I = sum_l p(l) log2(2 p(l) / (p(l) + p(-l))), which needs no LLR labels
    and stays the exact mutual information when the labels are rounded.
    """
    p = np.asarray(rows, dtype=float)
    both = p + p[..., ::-1]
    ratio = np.divide(2.0 * p, both, out=np.ones_like(p), where=both > 0.0)
    return special.xlogy(np.maximum(p, 0.0), ratio).sum(axis=-1) / _LN2


def triple_information(p, e, m) -> np.ndarray:
    """I(X; L) in bits for three-level laws (p, e, m) on (+inf, 0, -inf)."""
    return symmetric_information(np.stack([m, e, p], axis=-1))


def bsc_capacity(eps: float) -> float:
    if eps in (0.0, 1.0):
        return 1.0
    return 1.0 + eps * math.log2(eps) + (1.0 - eps) * math.log2(1.0 - eps)


def bawgn_capacity(sigma: float) -> float:
    """1 - E log2(1 + exp(-L)), L ~ N(2/sigma^2, 4/sigma^2), by adaptive quadrature."""
    mu, s = 2.0 / sigma**2, 2.0 / sigma
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def loss(t):
        return norm * math.exp(-0.5 * t * t) * np.logaddexp(0.0, -(mu + s * t)) / _LN2

    value, _ = integrate.quad(loss, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    return 1.0 - value


def bawgn_sigma(capacity: float) -> float:
    """Noise level of the BAWGN channel of the given capacity."""
    return optimize.brentq(lambda s: bawgn_capacity(s) - capacity, 0.05, 60.0, xtol=1e-14)


def bawgn_triple(sigma: float) -> tuple[float, float, float]:
    """Sign-quantized LLR law of BAWGN(sigma): (Pr(L>0), Pr(L=0), Pr(L<0))."""
    return float(special.ndtr(1.0 / sigma)), 0.0, float(special.ndtr(-1.0 / sigma))


def data_processing_check(mean_root_info: float, level0_info: float, capacity: float):
    """Mean root-channel information <= level-0 information <= capacity.

    Each quantized tree message is a function of two independent copies of
    its parent, so the pair of children carries at most twice the parent's
    information; the level-0 law is a function of the channel output.  The
    1e-9 slack covers rounding in the sums and the quadrature.
    """
    tol = 1e-9
    return mean_root_info <= level0_info + tol and level0_info <= capacity + tol


def mass_failures(rows) -> int:
    """Rows that are not probability vectors within LlrDensity's tolerances."""
    rows = np.asarray(rows, dtype=float)
    bad = (np.abs(rows.sum(axis=1) - 1.0) > MASS_TOL) | np.any(rows < -NEGATIVE_TOL, axis=1)
    return int(np.count_nonzero(bad))


# ---------------------------------------------------------------------------
# sampled polarization paths


def sampled_upper(triples, n: int, samples: int, seed: int):
    """Sampled-path estimate of U_n = E I(D_n) for each starting triple.

    Every path draws its n transforms uniformly; the three-level transforms
    are written out here from the paper,
        minus: (p, e, m) -> (p^2 + m^2, 1 - (1 - e)^2, 2pm)
        plus:  (p, e, m) -> (p^2 + 2pe, e^2 + 2pm, m^2 + 2em).
    Returns (means, standard errors), one entry per triple.
    """
    rng = np.random.default_rng(seed)
    triples = np.asarray(triples, dtype=float).reshape(-1, 3)
    means = np.empty(len(triples))
    errors = np.empty(len(triples))
    for row, (p0, e0, m0) in enumerate(triples):
        p = np.full(samples, p0)
        e = np.full(samples, e0)
        m = np.full(samples, m0)
        for _ in range(n):
            plus = rng.random(samples) < 0.5
            p, e, m = (np.where(plus, p * p + 2.0 * p * e, p * p + m * m),
                       np.where(plus, e * e + 2.0 * p * m, 1.0 - (1.0 - e) ** 2),
                       np.where(plus, m * m + 2.0 * e * m, 2.0 * p * m))
        info = triple_information(p, e, m)
        means[row] = info.mean()
        errors[row] = info.std(ddof=1) / math.sqrt(samples)
    return means, errors


def upper_check(upper: float, means, errors):
    """Whether a reported min-over-triples U_n lies in the sampled interval.

    With one triple this is |U - mean| <= Z_SAMPLED * se; with several (the universal
    bound takes the least U_n over its family) it is
    min(mean - z se) <= U <= min(mean + z se).
    """
    means = np.asarray(means)
    radius = Z_SAMPLED * np.asarray(errors)
    return float(np.min(means - radius)) <= upper <= float(np.min(means + radius))


def universal_triples(capacity: float, e_grid: int) -> np.ndarray:
    """The universal family: error rate pinned at (1 - capacity)/2, e swept."""
    err = (1.0 - capacity) / 2.0
    es = np.linspace(0.0, 2.0 * err, e_grid)
    return np.stack([1.0 - err - es / 2.0, es, np.maximum(err - es / 2.0, 0.0)], axis=1)


def capacity_grid(points: int) -> np.ndarray:
    """The capacities ``polarq curve --points`` sweeps."""
    if points == 1:
        return np.array([0.99])
    return np.linspace(0.01, 0.99, points)
