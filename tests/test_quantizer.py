import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarq.channels import BSC, LlrDensity
from polarq.quantizer import (
    SIGN,
    InvalidQuantizerError,
    QuantizerSpec,
    SignQuantizer,
    levels,
    parse_quantizer,
    quantize,
    quantize_density,
    sign_quantize,
)

INF = math.inf


class TestLevels:
    def test_five_level_example(self):
        spec = QuantizerSpec(delta=1.0, m_sat=2.0)
        assert np.array_equal(levels(spec), [-2, -1, 0, 1, 2])
        assert spec.n_levels == 5  # 1 + 2M/delta

    def test_smallest_three_level(self):
        spec = QuantizerSpec(delta=0.5, m_sat=0.5)
        assert np.array_equal(levels(spec), [-0.5, 0.0, 0.5])

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(InvalidQuantizerError):
            QuantizerSpec(delta=0.3, m_sat=1.0)
        with pytest.raises(InvalidQuantizerError):
            QuantizerSpec(delta=-1.0, m_sat=2.0)
        with pytest.raises(InvalidQuantizerError):
            QuantizerSpec(delta=2.0, m_sat=0.0)


class TestQuantize:
    spec = QuantizerSpec(delta=1.0, m_sat=2.0)

    def test_nearest_level(self):
        assert quantize(self.spec, 0.6) == 1.0
        assert quantize(self.spec, 0.4) == 0.0
        assert quantize(self.spec, -1.2) == -1.0

    def test_saturation(self):
        assert quantize(self.spec, 3.5) == 2.0
        assert quantize(self.spec, -100.0) == -2.0
        assert quantize(self.spec, INF) == 2.0
        assert quantize(self.spec, -INF) == -2.0

    def test_ties_away_from_zero(self):
        assert quantize(self.spec, 0.5) == 1.0
        assert quantize(self.spec, -0.5) == -1.0
        assert quantize(self.spec, 1.5) == 2.0

    def test_antisymmetry_sweep(self):
        rng = np.random.default_rng(0)
        for spec in (self.spec, QuantizerSpec(0.25, 3.0), QuantizerSpec(2.0, 10.0)):
            x = rng.uniform(-4 * spec.m_sat, 4 * spec.m_sat, size=5000)
            x = np.concatenate([x, spec.delta * (np.arange(-9, 10) + 0.5)])
            assert np.array_equal(quantize(spec, -x), -quantize(spec, x))

    def test_idempotent_and_in_range(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-10, 10, size=2000)
        q = quantize(self.spec, x)
        assert np.array_equal(quantize(self.spec, q), q)
        assert np.all(np.isin(q, levels(self.spec)))
        assert np.all(np.abs(q) <= self.spec.m_sat)

    def test_scalar_in_float_out(self):
        for x in (0.6, np.float64(-3.0), np.array(1.4)):
            out = quantize(self.spec, x)
            assert isinstance(out, float) and np.ndim(out) == 0
        assert quantize(self.spec, 0.6) == 1.0


class TestSignQuantize:
    def test_three_way(self):
        assert sign_quantize(3.7) == INF
        assert sign_quantize(0.0) == 0.0
        assert sign_quantize(-1e-300) == -INF
        assert sign_quantize(INF) == INF

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 5.0, -INF])
        assert np.array_equal(sign_quantize(x), [-INF, 0.0, INF, -INF])


class TestQuantizeDensity:
    spec = QuantizerSpec(delta=1.0, m_sat=2.0)

    def test_point_mass(self):
        d = LlrDensity([-0.6, 0.6], [0.0, 1.0])
        out = quantize_density(d, self.spec)
        assert out.mass_at(1.0) == 1.0

    def test_bsc_push_forward(self):
        # |LLR| = log(0.89/0.11) = 2.09 > M, so both atoms saturate
        out = quantize_density(BSC(0.11).llr_density(), self.spec)
        assert out.mass_at(2.0) == 0.89
        assert out.mass_at(-2.0) == 0.11
        assert np.all(np.isin(out.alphabet, levels(self.spec)))

    def test_mass_preserved_and_symmetry(self):
        rng = np.random.default_rng(2)
        half = rng.random(40)
        probs = np.concatenate([half[::-1], [0.3], half])
        probs /= probs.sum()
        alphabet = 0.17 * np.arange(-40, 41)
        d = LlrDensity(alphabet, probs)
        assert d.is_symmetric(tol=1e-15)
        out = quantize_density(d, self.spec)
        assert abs(out.probs.sum() - 1.0) <= 1e-15
        assert out.is_symmetric(tol=1e-15)


class TestParse:
    def test_round_trip(self):
        spec = parse_quantizer("q:delta=0.5,M=4")
        assert spec == QuantizerSpec(delta=0.5, m_sat=4.0)
        assert parse_quantizer(spec.spec_string()) == spec
        assert parse_quantizer("q:sign") is SIGN
        assert isinstance(parse_quantizer("q:SIGN"), SignQuantizer)

    def test_sign_quantizer_is_a_value(self):
        assert repr(SIGN) == "SignQuantizer()"
        assert SignQuantizer() == SIGN and hash(SignQuantizer()) == hash(SIGN)
        assert SIGN != QuantizerSpec(delta=1.0, m_sat=1.0) and SIGN != "q:sign"
        assert {SIGN, SignQuantizer()} == {SIGN}
        assert SIGN.n_levels == 3 and SIGN.spec_string() == "q:sign"
        with pytest.raises(dataclasses.FrozenInstanceError):
            SIGN.n_levels = 5

    @given(st.floats(1e-6, 1e6), st.integers(1, 10**6))
    def test_round_trip_exact(self, delta, half_levels):
        spec = QuantizerSpec(delta=delta, m_sat=half_levels * delta)
        assert parse_quantizer(spec.spec_string()) == spec

    def test_errors(self):
        for bad in ("delta=1,M=2", "q:delta=1", "q:delta=0.3,M=1", "q:delta=a,M=2"):
            with pytest.raises(InvalidQuantizerError):
                parse_quantizer(bad)
