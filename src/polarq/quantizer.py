"""Uniform LLR message quantizers.

Two quantizers are used by the decoders: the uniform saturating quantizer
with level spacing delta and truncation threshold M (alphabet size
1 + 2M/delta), and the three-level sign quantizer with the symbolic
alphabet {-inf, 0, +inf}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import INF, LlrDensity, _spec_number


class InvalidQuantizerError(ValueError):
    """Quantizer spec whose alphabet is not of the form {k*delta, |k| <= M/delta}."""


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform quantizer with level spacing ``delta`` and saturation ``m_sat``.

    ``m_sat``/``delta`` must be a positive integer so the alphabet is
    {-M, ..., -delta, 0, delta, ..., M}.
    """

    delta: float
    m_sat: float

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise InvalidQuantizerError(f"delta must be positive, got {self.delta}")
        if not (self.m_sat > 0.0 and math.isfinite(self.m_sat)):
            raise InvalidQuantizerError(f"M must be positive, got {self.m_sat}")
        ratio = self.m_sat / self.delta
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise InvalidQuantizerError(
                f"M/delta must be a positive integer, got {self.m_sat}/{self.delta}"
            )

    @property
    def half_levels(self) -> int:
        """Number of positive levels, M/delta."""
        return int(round(self.m_sat / self.delta))

    @property
    def n_levels(self) -> int:
        """Alphabet size 1 + 2M/delta."""
        return 1 + 2 * self.half_levels

    def spec_string(self) -> str:
        return f"q:delta={_spec_number(self.delta)},M={_spec_number(self.m_sat)}"


@dataclass(frozen=True)
class SignQuantizer:
    """Marker for the three-level {-inf, 0, +inf} quantizer."""

    n_levels = 3

    def spec_string(self) -> str:
        return "q:sign"


SIGN = SignQuantizer()


def levels(spec: QuantizerSpec) -> np.ndarray:
    """The ordered alphabet {k*delta : |k| <= M/delta}."""
    k = spec.half_levels
    return spec.delta * np.arange(-k, k + 1)


def quantize_index(spec: QuantizerSpec, x) -> np.ndarray:
    """Index of the quantized value in ``levels(spec)``, vectorized.

    Rounds to the nearest level with ties away from zero, which keeps the
    map antisymmetric; |x| beyond M (including the infinities) saturates.
    """
    x = np.asarray(x, dtype=float)
    k = np.floor(np.abs(x) / spec.delta + 0.5)
    k = np.minimum(k, spec.half_levels)
    return (np.sign(x) * k).astype(np.int64) + spec.half_levels


def quantize(spec: QuantizerSpec, x):
    """Quantize ``x`` onto the alphabet of ``spec``."""
    idx = quantize_index(spec, x)
    return (idx - spec.half_levels) * spec.delta


def sign_quantize(x):
    """Three-level sign map: +inf for x > 0, 0 for x = 0, -inf for x < 0."""
    if np.ndim(x) == 0:
        return INF if x > 0 else -INF if x < 0 else 0.0
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, INF, np.where(x < 0, -INF, 0.0))


def quantize_density(d: LlrDensity, spec: QuantizerSpec) -> LlrDensity:
    """Push a density through the quantizer.

    Each atom's mass moves to its quantized level; the output is supported
    on the full alphabet of ``spec`` and total mass is preserved exactly.
    """
    probs = np.zeros(spec.n_levels)
    np.add.at(probs, quantize_index(spec, d.alphabet), d.probs)
    return LlrDensity(levels(spec), probs)


def parse_quantizer(spec: str) -> QuantizerSpec | SignQuantizer:
    """Parse ``q:sign`` or ``q:delta=<delta>,M=<M>``."""
    body = spec.strip()
    if not body.lower().startswith("q:"):
        raise InvalidQuantizerError(f"malformed quantizer spec {spec!r}")
    body = body[2:]
    if body.lower() == "sign":
        return SIGN
    fields = {}
    for part in body.split(","):
        key, sep, val = part.partition("=")
        if not sep:
            raise InvalidQuantizerError(f"malformed quantizer spec {spec!r}")
        fields[key.strip().lower()] = val.strip()
    try:
        return QuantizerSpec(delta=float(fields["delta"]), m_sat=float(fields["m"]))
    except KeyError as exc:
        raise InvalidQuantizerError(f"quantizer spec {spec!r} is missing {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, InvalidQuantizerError):
            raise
        raise InvalidQuantizerError(f"malformed quantizer spec {spec!r}: {exc}") from exc
