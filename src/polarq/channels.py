"""Binary memoryless symmetric (BMS) channel models.

Every channel is described by the distribution of the log-likelihood ratio
L(Y) = log(W(Y|0)/W(Y|1)) observed under the all-zero input, with natural
logarithms.  Infinite LLRs (a non-erased BEC output, a noiseless BSC) are
represented by the IEEE float infinities: they dominate finite addition and
opposite infinities cancel to 0, matching the saturation algebra used by the
decoders.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, xlogy

INF = math.inf

_LN2 = math.log(2.0)


def _spec_number(x: float) -> str:
    """``x`` for a spec string: ``%g`` when that reads back exactly, else repr."""
    x = float(x)
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class InvalidChannelError(ValueError):
    """Channel parameter outside its valid range."""


class InvalidGridError(ValueError):
    """Discretization grid too coarse or not antisymmetric."""


def binary_entropy(x):
    """Binary entropy h2(x) in bits, with h2(0) = h2(1) = 0."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    safe = np.where(inner, x, 0.5)
    h = np.where(inner, -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe), 0.0)
    if h.ndim == 0:
        return float(h)
    return h


@dataclass(frozen=True)
class TripleDensity:
    """Three-atom message distribution on {+inf, 0, -inf}.

    ``p`` is the mass at +inf, ``e`` the mass at 0 (erasure) and ``m`` the
    mass at -inf.  This is the state of the three-level decoder's
    polarization process.
    """

    p: float
    e: float
    m: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("e", self.e), ("m", self.m)):
            if not (v >= 0.0):
                raise InvalidChannelError(f"{name} must be nonnegative, got {v}")
        total = self.p + self.e + self.m
        if abs(total - 1.0) > 1e-12:
            raise InvalidChannelError(f"masses must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.e, self.m], dtype=float)


def triple_stats(d: TripleDensity) -> tuple[float, float, float]:
    """Return (mutual information, Bhattacharyya parameter, error probability).

    For the equivalent binary-input channel of a triple (p, e, m):

        I = (m + p) (1 - h2(p / (p + m)))       (0 when p + m = 0)
        Z = 2 sqrt(m p) + e
        E = m + e/2
    """
    p, e, m = d.p, d.e, d.m
    return (float(_mutual_info_arrays(p, e, m)), float(_bhattacharyya_arrays(p, e, m)),
            float(_error_rate_arrays(p, e, m)))


# The functionals on arrays of triples, the one definition of each.

def _mutual_info_arrays(p, e, m):
    # s(1 - h2(p/s)) written as s + p log2 p + m log2 m - s log2 s with
    # x log x := 0 at x = 0, avoiding the 0/0 branch at s = 0
    s = p + m
    return s + (xlogy(p, p) + xlogy(m, m) - xlogy(s, s)) / _LN2


def _bhattacharyya_arrays(p, e, m):
    return 2.0 * np.sqrt(m * p) + e


def _error_rate_arrays(p, e, m):
    # m + e/2 rather than 1 - p - e/2, which cancels at tiny error rates
    return m + 0.5 * e


def _sign_masses(alphabet, probs):
    """Masses (p, e, m) above, at and below LLR 0, per row of ``probs``."""
    return tuple(probs[..., side].sum(axis=-1)
                 for side in (alphabet > 0.0, alphabet == 0.0, alphabet < 0.0))


@dataclass(frozen=True, eq=False)
class LlrDensity:
    """Finite probability mass function over a symmetric LLR alphabet.

    The alphabet is strictly increasing and closed under negation (levels of
    mass zero are kept so that the mirror of every level is present).
    """

    alphabet: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        alphabet = np.asarray(self.alphabet, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if alphabet.ndim != 1 or alphabet.shape != probs.shape:
            raise ValueError("alphabet and probs must be 1-D and the same length")
        if alphabet.size == 0:
            raise ValueError("alphabet must be non-empty")
        if np.any(np.diff(alphabet) <= 0):
            raise ValueError("alphabet must be strictly increasing")
        if not np.array_equal(alphabet, -alphabet[::-1]):
            raise ValueError("alphabet must be antisymmetric about 0")
        # written so that NaN fails both checks
        if not np.all(probs >= -1e-15):
            raise ValueError("probabilities must be nonnegative")
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        probs = np.maximum(probs, 0.0)
        alphabet.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)

    def mass_at(self, x: float) -> float:
        """Probability mass at level ``x`` (0.0 if x is not a level)."""
        idx = np.flatnonzero(self.alphabet == x)
        return float(self.probs[idx[0]]) if idx.size else 0.0

    def mean(self) -> float:
        finite = np.isfinite(self.alphabet)
        if np.any(~finite & (self.probs > 0.0)):
            sgn = np.sign(self.alphabet[~finite & (self.probs > 0.0)])
            return float(INF if np.all(sgn > 0) else -INF if np.all(sgn < 0) else np.nan)
        return float(np.dot(self.alphabet[finite], self.probs[finite]))

    def error_prob(self) -> float:
        """Pr(L < 0) + Pr(L = 0)/2, the hard-decision error probability."""
        return float(_error_rate_arrays(*_sign_masses(self.alphabet, self.probs)))

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Whether the mass function equals its mirror image."""
        return bool(np.all(np.abs(self.probs - self.probs[::-1]) <= tol))


class ChannelModel(abc.ABC):
    """A BMS channel W, viewed through its LLR distribution under input 0."""

    @abc.abstractmethod
    def capacity(self) -> float:
        """Channel capacity I(W) in bits per use."""

    @abc.abstractmethod
    def triple(self) -> TripleDensity:
        """Sign-quantized LLR law (Pr(L>0), Pr(L=0), Pr(L<0)).

        This is the starting state of the three-level decoder's
        polarization process.
        """

    @abc.abstractmethod
    def llr_density(self) -> LlrDensity:
        """Distribution of L(Y) under the all-zero input.

        Exact for finite-output channels.  BAWGN's puts each grid cell's
        mass at the cell's centre, off by up to 2.3e-3 per level at |Q| = 17.
        """

    @abc.abstractmethod
    def sample_llr(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Draw an array of ``size`` LLR observations under the all-zero input."""

    @abc.abstractmethod
    def spec_string(self) -> str:
        """The CLI spec string that parses back to this channel."""

    def __str__(self):
        return self.spec_string()


class BEC(ChannelModel):
    """Binary erasure channel with erasure probability ``eps``."""

    def __init__(self, eps: float):
        if not (0.0 <= eps <= 1.0):
            raise InvalidChannelError(f"BEC erasure probability must be in [0, 1], got {eps}")
        self.eps = float(eps)

    def capacity(self) -> float:
        return 1.0 - self.eps

    def triple(self) -> TripleDensity:
        return TripleDensity(1.0 - self.eps, self.eps, 0.0)

    def llr_density(self) -> LlrDensity:
        return LlrDensity([-INF, 0.0, INF], [0.0, self.eps, 1.0 - self.eps])

    def sample_llr(self, rng, size):
        return np.where(rng.random(size) < self.eps, 0.0, INF)

    def spec_string(self) -> str:
        return f"bec:{_spec_number(self.eps)}"


class BSC(ChannelModel):
    """Binary symmetric channel with crossover probability ``eps`` <= 1/2."""

    def __init__(self, eps: float):
        if not (0.0 <= eps <= 0.5):
            raise InvalidChannelError(f"BSC crossover probability must be in [0, 1/2], got {eps}")
        self.eps = float(eps)

    @property
    def llr_magnitude(self) -> float:
        if self.eps == 0.0:
            return INF
        return math.log((1.0 - self.eps) / self.eps)

    def capacity(self) -> float:
        return 1.0 - binary_entropy(self.eps)

    def triple(self) -> TripleDensity:
        if self.eps == 0.5:
            # the LLR is identically zero: everything is an erasure
            return TripleDensity(0.0, 1.0, 0.0)
        return TripleDensity(1.0 - self.eps, 0.0, self.eps)

    def llr_density(self) -> LlrDensity:
        l0 = self.llr_magnitude
        if l0 == 0.0:
            return LlrDensity([0.0], [1.0])
        return LlrDensity([-l0, l0], [self.eps, 1.0 - self.eps])

    def sample_llr(self, rng, size):
        l0 = self.llr_magnitude
        return np.where(rng.random(size) < self.eps, -l0, l0)

    def spec_string(self) -> str:
        return f"bsc:{_spec_number(self.eps)}"


class BAWGN(ChannelModel):
    """Binary-input AWGN channel, unit-energy BPSK, noise std ``sigma``.

    Under input 0 the modulated symbol is +1 and the LLR of an observation y
    is 2y/sigma^2, i.e. L ~ N(2/sigma^2, 4/sigma^2).
    """

    # trapezoid rule on a fixed grid keeps the capacity reproducible to 1e-6
    _CAP_POINTS = 20001
    _CAP_SPAN_SIGMAS = 12.0
    LLR_GRID = 4001  # cells of ``llr_density``'s grid over [-LLR_SPAN, LLR_SPAN]
    LLR_SPAN = 40.0

    def __init__(self, sigma: float):
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise InvalidChannelError(f"BAWGN sigma must be positive and finite, got {sigma}")
        self.sigma = float(sigma)

    @property
    def llr_mean(self) -> float:
        return 2.0 / self.sigma**2

    @property
    def llr_std(self) -> float:
        return 2.0 / self.sigma

    def capacity(self) -> float:
        mu, s = self.llr_mean, self.llr_std
        t = np.linspace(-self._CAP_SPAN_SIGMAS, self._CAP_SPAN_SIGMAS, self._CAP_POINTS)
        l = mu + s * t
        pdf = np.exp(-0.5 * t * t) / (s * math.sqrt(2.0 * math.pi))
        loss = np.logaddexp(0.0, -l) / _LN2
        return 1.0 - float(np.trapezoid(pdf * loss, l))

    def triple(self) -> TripleDensity:
        p = float(ndtr(1.0 / self.sigma))
        m = float(ndtr(-1.0 / self.sigma))
        return TripleDensity(p, max(1.0 - p - m, 0.0), m)

    def llr_density(self, *, grid: int = LLR_GRID, span: float = LLR_SPAN) -> LlrDensity:
        """The LLR law on ``grid`` equal cells over [-span, span], outer cells unbounded.

        Each cell's mass sits at its centre, so a cell that straddles a
        quantizer's rounding point goes whole to one level: at capacity 1/2
        and |Q| = 17 (M = 8) a level's mass is off by up to 2.3e-3.
        """
        if grid < 2:
            raise InvalidGridError(f"need at least 2 grid levels, got {grid}")
        if grid % 2 == 0:
            raise InvalidGridError("grid must have an odd number of cells to be antisymmetric")
        half = (grid - 1) // 2
        step = span / half
        centers = step * np.arange(-half, half + 1)
        edges = step * (np.arange(-half, half) + 0.5)
        mu, s = self.llr_mean, self.llr_std
        cdf = ndtr((edges - mu) / s)
        masses = np.empty(grid)
        masses[0] = cdf[0]
        masses[1:-1] = np.diff(cdf)
        masses[-1] = 1.0 - cdf[-1]
        return LlrDensity(centers, masses)

    def sample_llr(self, rng, size):
        y = 1.0 + self.sigma * rng.standard_normal(size)
        return 2.0 * y / self.sigma**2

    def spec_string(self) -> str:
        return f"bawgn:{_spec_number(self.sigma)}"


class DiscreteSymmetric(ChannelModel):
    """BMS channel given directly by a finite LLR law under input 0.

    ``levels`` must be strictly increasing and antisymmetric; ``probs`` are
    the masses under the all-zero input.  Mass at -inf is rejected: an
    output ruled out under input 0 cannot be observed under input 0.

    The law must be an LLR law, P(-l) = e^(-l) P(l) for every level l > 0;
    otherwise its capacity is meaningless (it can even come out negative).
    Each finite mirrored pair is compared in log space, where masses keep
    their relative precision however small they are:

        |log P(-l) - (log P(l) - l)| <= 1e-9 * max(1, l),

    with both sides first raised to log(2^-1022).  The clamp makes a mass
    below the smallest normal double count as zero: no quantity computed in
    double precision can tell it apart, and subnormals carry too few digits
    for a relative comparison.  The tolerance is far above the rounding of
    laws made here: ``channel_from_triple`` derives the level from the two
    masses, which leaves a few ulps of at most 745, under 1e-12.  It admits
    levels and masses written to about ten significant digits, and a law
    within it is off in capacity by about 1e-9 bits at most.
    """

    def __init__(self, levels, probs):
        levels = np.asarray(levels, dtype=float)
        probs = np.asarray(probs, dtype=float)
        try:
            density = LlrDensity(levels, probs)
        except ValueError as exc:
            raise InvalidChannelError(str(exc)) from exc
        if density.alphabet[0] == -INF and density.probs[0] > 0.0:
            raise InvalidChannelError("positive mass at LLR -inf is not a valid BMS law")
        half = density.alphabet.size // 2
        positive = slice(density.alphabet.size - half, None)  # the levels l > 0
        finite = np.isfinite(density.alphabet[positive])
        level = density.alphabet[positive][finite]
        up = density.probs[positive][finite]
        down = density.probs[:half][::-1][finite]
        floor = math.log(np.finfo(float).tiny)
        with np.errstate(divide="ignore"):  # log of a zero mass is -inf, then clamped
            want = np.maximum(np.log(up) - level, floor)
            have = np.maximum(np.log(down), floor)
        bad = np.abs(have - want) > 1e-9 * np.maximum(1.0, level)
        if np.any(bad):
            l0 = _spec_number(level[np.argmax(bad)])
            raise InvalidChannelError(
                f"masses at LLR -{l0} and {l0} break P(-l) = e^(-l) P(l): "
                "not the LLR law of a BMS channel")
        self._density = density

    @property
    def levels(self) -> np.ndarray:
        return self._density.alphabet

    @property
    def probs(self) -> np.ndarray:
        return self._density.probs

    def capacity(self) -> float:
        levels, probs = self.levels, self.probs
        live = probs > 0.0
        loss = np.logaddexp(0.0, -levels[live]) / _LN2
        return float(np.dot(probs[live], 1.0 - loss))

    def triple(self) -> TripleDensity:
        return TripleDensity(*map(float, _sign_masses(self.levels, self.probs)))

    def llr_density(self) -> LlrDensity:
        return self._density

    def sample_llr(self, rng, size):
        probs = self.probs / self.probs.sum()
        idx = rng.choice(self.levels.size, size=size, p=probs)
        return self.levels[idx]

    def spec_string(self) -> str:
        pairs = ";".join(f"{_spec_number(l)},{_spec_number(p)}"
                         for l, p in zip(self.levels, self.probs))
        return f"discrete:{pairs}"


def channel_from_triple(p: float, e: float, m: float) -> DiscreteSymmetric:
    """The two-ary-with-erasure BMS channel whose sign-quantized law is (p, e, m).

    Its LLR alphabet is {-log(p/m), 0, +log(p/m)} with masses (m, e, p).
    When p == m the two outer levels collapse onto 0 and the literal triple
    is no longer recoverable from the channel; p > m is the useful regime.
    """
    TripleDensity(p, e, m)  # range validation
    if p == 0.0 and m == 0.0:
        return DiscreteSymmetric([0.0], [1.0])
    if m == 0.0:
        return DiscreteSymmetric([-INF, 0.0, INF], [0.0, e, p])
    if p == 0.0:
        raise InvalidChannelError("triple with p = 0 < m has no BMS representation")
    l0 = math.log(p) - math.log(m)  # p / m may overflow
    if l0 == 0.0:
        return DiscreteSymmetric([0.0], [1.0])
    if l0 < 0.0:
        return DiscreteSymmetric([l0, 0.0, -l0], [p, e, m])
    return DiscreteSymmetric([-l0, 0.0, l0], [m, e, p])


def parse_channel(spec: str) -> ChannelModel:
    """Parse a channel spec string.

    Grammar: ``bec:<eps>``, ``bsc:<eps>``, ``bawgn:<sigma>``,
    ``triple:<p>,<e>,<m>`` or ``discrete:<level>,<mass>;<level>,<mass>;...``
    (levels may be ``inf`` and ``-inf``).  Decimal points only, locale
    independent.  Every ``spec_string()`` parses back to the same parameters.
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise InvalidChannelError(f"malformed channel spec {spec!r}")
    kind = kind.strip().lower()
    try:
        if kind == "bec":
            return BEC(float(arg))
        if kind == "bsc":
            return BSC(float(arg))
        if kind == "bawgn":
            return BAWGN(float(arg))
        if kind == "triple":
            parts = [float(x) for x in arg.split(",")]
            if len(parts) != 3:
                raise InvalidChannelError("triple spec needs three comma-separated masses")
            return channel_from_triple(*parts)
        if kind == "discrete":
            pairs = [[float(x) for x in pair.split(",")] for pair in arg.split(";")]
            if any(len(pair) != 2 for pair in pairs):
                raise InvalidChannelError("discrete spec needs ';'-separated <level>,<mass> pairs")
            levels, probs = zip(*pairs)
            return DiscreteSymmetric(levels, probs)
    except InvalidChannelError:
        raise
    except ValueError as exc:
        raise InvalidChannelError(f"malformed channel spec {spec!r}: {exc}") from exc
    raise InvalidChannelError(f"unknown channel kind {kind!r}")
