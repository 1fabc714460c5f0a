import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chisquare

from polarq.channels import (
    BAWGN,
    BEC,
    BSC,
    DiscreteSymmetric,
    InvalidChannelError,
    InvalidGridError,
    LlrDensity,
    TripleDensity,
    binary_entropy,
    channel_from_triple,
    parse_channel,
    triple_stats,
)

INF = math.inf


def quad_bawgn_capacity(sigma):
    # independent oracle: adaptive quadrature instead of the fixed trapezoid
    mu, s = 2 / sigma**2, 2 / sigma
    f = lambda l: (math.exp(-0.5 * ((l - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
                   * (np.logaddexp(0.0, -l) / math.log(2)))
    val, _ = quad(f, mu - 14 * s, mu + 14 * s, limit=200)
    return 1.0 - val


class TestCapacity:
    def test_bec_closed_form(self):
        assert BEC(0.5).capacity() == 0.5
        assert BEC(0.0).capacity() == 1.0
        assert BEC(1.0).capacity() == 0.0

    def test_bsc_paper_value(self):
        assert BSC(0.11).capacity() == pytest.approx(0.5, abs=1e-3)
        assert BSC(0.11).capacity() == pytest.approx(0.500084041835, abs=1e-10)

    def test_bsc_extremes(self):
        assert BSC(0.0).capacity() == 1.0
        assert BSC(0.5).capacity() == 0.0

    def test_bawgn_at_half_capacity_sigma(self):
        sigma_star = brentq(lambda s: quad_bawgn_capacity(s) - 0.5, 0.5, 2.0, xtol=1e-12)
        assert sigma_star == pytest.approx(0.97869412, abs=1e-6)
        assert BAWGN(sigma_star).capacity() == pytest.approx(0.5, abs=1e-6)

    def test_bawgn_matches_quadrature(self):
        for sigma in (0.4, 0.8, 1.0, 1.5, 3.0):
            assert BAWGN(sigma).capacity() == pytest.approx(
                quad_bawgn_capacity(sigma), abs=1e-7)

    def test_discrete_matches_bsc(self):
        eps = 0.11
        l0 = math.log((1 - eps) / eps)
        ch = DiscreteSymmetric([-l0, l0], [eps, 1 - eps])
        assert ch.capacity() == pytest.approx(BSC(eps).capacity(), abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidChannelError):
            BEC(1.5)
        with pytest.raises(InvalidChannelError):
            BSC(0.6)
        with pytest.raises(InvalidChannelError):
            BAWGN(0.0)
        with pytest.raises(InvalidChannelError):
            BAWGN(-1.0)


class TestTriple:
    def test_bsc_paper_example(self):
        t = BSC(0.11).triple()
        assert (t.p, t.e, t.m) == (0.89, 0.0, 0.11)

    def test_bec(self):
        t = BEC(0.5).triple()
        assert (t.p, t.e, t.m) == (0.5, 0.5, 0.0)

    def test_bawgn_normal_cdf(self):
        t = BAWGN(1.0).triple()
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert t.p == pytest.approx(phi1, abs=1e-12)
        assert t.e == pytest.approx(0.0, abs=1e-12)
        assert t.m == pytest.approx(1.0 - phi1, abs=1e-12)

    def test_bsc_half_is_pure_erasure(self):
        # the LLR is identically zero at eps = 1/2
        t = BSC(0.5).triple()
        assert (t.p, t.e, t.m) == (0.0, 1.0, 0.0)

    def test_mass_sums_exactly(self):
        for ch in (BEC(0.37), BSC(0.11), BSC(0.0)):
            t = ch.triple()
            assert t.p + t.e + t.m == 1.0
        t = BAWGN(0.9).triple()
        assert abs(t.p + t.e + t.m - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidChannelError):
            TripleDensity(0.5, 0.6, 0.2)
        with pytest.raises(InvalidChannelError):
            TripleDensity(-0.1, 0.6, 0.5)


class TestTripleStats:
    def test_perfect_channel(self):
        assert triple_stats(TripleDensity(1, 0, 0)) == (1.0, 0.0, 0.0)

    def test_pure_erasure(self):
        mi, z, err = triple_stats(TripleDensity(0, 1, 0))
        assert (mi, z, err) == (0.0, 1.0, 0.5)

    def test_bsc_example(self):
        mi, z, err = triple_stats(TripleDensity(0.89, 0, 0.11))
        assert mi == pytest.approx(0.500084041835, abs=1e-10)
        assert z == pytest.approx(0.625779513886, abs=1e-10)
        assert err == pytest.approx(0.11, abs=1e-15)

    def test_deterministic_inversion(self):
        # always -inf is still a perfectly informative channel
        mi, z, err = triple_stats(TripleDensity(0, 0, 1))
        assert mi == 1.0 and z == 0.0 and err == 1.0

    def test_error_rate_bound_over_channels(self):
        # E(W) <= (1 - I(W)) / 2 for every channel
        channels = [BEC(e) for e in (0.0, 0.2, 0.5, 0.9, 1.0)]
        channels += [BSC(e) for e in (0.0, 0.05, 0.11, 0.3, 0.5)]
        channels += [BAWGN(s) for s in (0.4, 0.9786941246, 1.5, 4.0)]
        for ch in channels:
            err = triple_stats(ch.triple())[2]
            assert err <= (1.0 - ch.capacity()) / 2.0 + 1e-9, ch


class TestLlrDensity:
    def test_bsc_atoms(self):
        d = BSC(0.11).llr_density()
        l0 = math.log(0.89 / 0.11)
        assert d.mass_at(l0) == 0.89
        assert d.mass_at(-l0) == 0.11

    def test_bec_atoms(self):
        d = BEC(0.5).llr_density()
        assert d.mass_at(INF) == 0.5
        assert d.mass_at(0.0) == 0.5
        assert d.mass_at(-INF) == 0.0

    def test_bawgn_mean(self):
        d = BAWGN(1.0).llr_density(grid=2001, span=30.0)
        assert abs(d.probs.sum() - 1.0) < 1e-10
        assert d.mean() == pytest.approx(2.0, abs=1e-3)

    def test_alphabet_antisymmetric_and_normalized(self):
        for d in (BEC(0.3).llr_density(), BSC(0.2).llr_density(),
                  BAWGN(1.2).llr_density(grid=401, span=25.0)):
            assert np.array_equal(d.alphabet, -d.alphabet[::-1])
            assert abs(d.probs.sum() - 1.0) < 1e-10

    def test_even_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            BAWGN(1.0).llr_density(grid=100)
        with pytest.raises(InvalidGridError):
            BAWGN(1.0).llr_density(grid=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LlrDensity([0.0, 1.0], [0.5, 0.5])  # not antisymmetric
        with pytest.raises(ValueError):
            LlrDensity([-1.0, 0.0, 1.0], [0.5, 0.1, 0.5])  # mass 1.1
        with pytest.raises(ValueError):
            LlrDensity([1.0, -1.0], [0.5, 0.5])  # not increasing

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]])
    def test_nan_mass_refused(self, probs):
        with pytest.raises(ValueError):
            LlrDensity([-1.0, 1.0], probs)

    def test_value_type(self):
        d = LlrDensity([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        same = LlrDensity(alphabet=[-1.0, 0.0, 1.0], probs=[0.25, 0.5, 0.25])
        assert np.array_equal(d.alphabet, same.alphabet)
        assert np.array_equal(d.probs, same.probs)
        assert repr(d) == f"LlrDensity(alphabet={d.alphabet!r}, probs={d.probs!r})"
        # equality is identity, as for the arrays it holds
        assert d == d and d != same and len({d, same}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.probs = same.probs
        with pytest.raises(AttributeError):
            d.extra = 1
        with pytest.raises(ValueError):
            d.probs[0] = 0.0
        assert not d.alphabet.flags.writeable

    def test_clamps_rounding_below_zero(self):
        d = LlrDensity([-1.0, 0.0, 1.0], [-1e-16, 0.5, 0.5 + 1e-16])
        assert d.probs[0] == 0.0

    def test_bec_and_bsc_laws_are_the_mirrored_arrays(self):
        for eps in (0.0, 0.3, 1.0):
            d = BEC(eps).llr_density()
            assert d.alphabet.tolist() == [-INF, 0.0, INF]
            assert d.probs.tolist() == [0.0, eps, 1.0 - eps]
        l0 = math.log(0.89 / 0.11)
        for eps, alphabet, probs in ((0.11, [-l0, l0], [0.11, 0.89]),
                                     (0.0, [-INF, INF], [0.0, 1.0]),
                                     (0.5, [0.0], [1.0])):
            d = BSC(eps).llr_density()
            assert d.alphabet.tolist() == alphabet
            assert d.probs.tolist() == probs


class TestSampleLlr:
    def test_size_is_required(self):
        rng = np.random.default_rng(0)
        for ch in (BEC(0.3), BSC(0.11), BAWGN(1.0), channel_from_triple(0.8, 0.1, 0.1)):
            with pytest.raises(TypeError):
                ch.sample_llr(rng)
            assert ch.sample_llr(rng, size=(2, 3)).shape == (2, 3)

    def test_noiseless_bsc(self):
        rng = np.random.default_rng(0)
        x = BSC(0.0).sample_llr(rng, size=100)
        assert np.all(x == INF)

    def test_all_erasures(self):
        rng = np.random.default_rng(0)
        x = BEC(1.0).sample_llr(rng, size=100)
        assert np.all(x == 0.0)

    def test_bsc_flip_fraction(self):
        rng = np.random.default_rng(123)
        x = BSC(0.11).sample_llr(rng, size=10**6)
        frac = np.mean(x < 0)
        sigma = math.sqrt(0.11 * 0.89 / 10**6)
        assert abs(frac - 0.11) < 3 * sigma

    def test_deterministic_given_stream(self):
        a = BAWGN(1.0).sample_llr(np.random.default_rng(7), size=50)
        b = BAWGN(1.0).sample_llr(np.random.default_rng(7), size=50)
        assert np.array_equal(a, b)

    def test_histogram_matches_density(self):
        rng = np.random.default_rng(11)
        n = 10**5

        d = BSC(0.11).llr_density()
        x = BSC(0.11).sample_llr(rng, size=n)
        counts = [np.sum(x == l) for l in d.alphabet if d.mass_at(l) > 0]
        expect = [n * d.mass_at(l) for l in d.alphabet if d.mass_at(l) > 0]
        assert chisquare(counts, expect).pvalue > 1e-4

        d = BEC(0.4).llr_density()
        x = BEC(0.4).sample_llr(rng, size=n)
        counts = [np.sum(x == 0.0), np.sum(x == INF)]
        assert chisquare(counts, [n * 0.4, n * 0.6]).pvalue > 1e-4

        ch = BAWGN(1.0)
        d = ch.llr_density(grid=41, span=12.0)
        x = ch.sample_llr(rng, size=n)
        step = d.alphabet[1] - d.alphabet[0]
        idx = np.clip(np.round(x / step), -20, 20).astype(int) + 20
        counts = np.bincount(idx, minlength=41)
        expect = n * d.probs
        keep = expect >= 10
        ratio = counts[keep].sum() / expect[keep].sum()
        assert chisquare(counts[keep], expect[keep] * ratio).pvalue > 1e-4


class TestDiscreteAndParsing:
    def test_discrete_validation(self):
        with pytest.raises(InvalidChannelError):
            DiscreteSymmetric([-1.0, 1.0], [0.6, 0.6])
        with pytest.raises(InvalidChannelError):
            DiscreteSymmetric([-2.0, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidChannelError):
            DiscreteSymmetric([-INF, 0.0, INF], [0.1, 0.4, 0.5])

    def test_discrete_law_must_be_an_llr_law(self):
        # P(-l) = e^(-l) P(l) up to 1e-9 * max(1, l) in log space
        l0 = 2.0
        for slip, valid in ((1e-10, True), (-1e-10, True), (1e-8, False), (-1e-8, False)):
            m = 1.0 / (1.0 + math.exp(l0 + slip))  # log((1 - m) / m) = l0 + slip
            if valid:
                DiscreteSymmetric([-l0, l0], [m, 1.0 - m])
            else:
                with pytest.raises(InvalidChannelError):
                    DiscreteSymmetric([-l0, l0], [m, 1.0 - m])
        with pytest.raises(InvalidChannelError):
            DiscreteSymmetric([-1.0, 1.0], [0.0, 1.0])
        # a mirror mass below the smallest normal double counts as zero
        DiscreteSymmetric([-800.0, 0.0, 800.0], [0.0, 0.5, 0.5])
        DiscreteSymmetric([-1.0, 0.0, 1.0], [1e-310, 1.0, 0.0])

    def test_triple_channel_round_trip(self):
        ch = channel_from_triple(0.89, 0.0, 0.11)
        t = ch.triple()
        assert (t.p, t.e, t.m) == pytest.approx((0.89, 0.0, 0.11), abs=1e-15)
        assert ch.capacity() == pytest.approx(
            triple_stats(TripleDensity(0.89, 0, 0.11))[0], abs=1e-12)

    def test_triple_channel_degenerate(self):
        t = channel_from_triple(0.6, 0.4, 0.0).triple()
        assert (t.p, t.e, t.m) == (0.6, 0.4, 0.0)

    def test_parse_round_trip(self):
        for spec, cls in (("bec:0.5", BEC), ("bsc:0.11", BSC), ("bawgn:0.9", BAWGN)):
            ch = parse_channel(spec)
            assert isinstance(ch, cls)
            assert ch.spec_string() == spec
        ch = parse_channel("triple:0.89,0,0.11")
        assert isinstance(ch, DiscreteSymmetric)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.5),
           st.floats(0.0, exclude_min=True, allow_infinity=False))
    def test_parse_round_trip_exact(self, erasure, crossover, sigma):
        # spec strings name their channel exactly, not to %g's six digits
        for ch, param in ((BEC(erasure), "eps"), (BSC(crossover), "eps"),
                          (BAWGN(sigma), "sigma")):
            back = parse_channel(ch.spec_string())
            assert type(back) is type(ch)
            assert getattr(back, param) == getattr(ch, param)

    @given(st.tuples(*[st.floats(0.0, 1.0)] * 3)
           .filter(lambda t: sum(t) > 0.0))
    def test_discrete_parse_round_trip_exact(self, raw):
        p, e, m = np.array(raw) / sum(raw)
        ch = channel_from_triple(*((m, e, p) if m > p else (p, e, m)))
        back = parse_channel(ch.spec_string())
        assert isinstance(back, DiscreteSymmetric)
        assert np.array_equal(back.levels, ch.levels)
        assert np.array_equal(back.probs, ch.probs)

    def test_triple_with_overflowing_ratio(self):
        for ch in (parse_channel("triple:0.9,0.1,1e-310"), channel_from_triple(1.0, 0.0, 5e-324)):
            assert np.all(np.isfinite(ch.levels))
            assert parse_channel(ch.spec_string()).spec_string() == ch.spec_string()
        assert parse_channel("triple:0.9,0.1,1e-310").triple() == TripleDensity(0.9, 0.1, 1e-310)

    def test_discrete_spec_parses(self):
        ch = parse_channel("discrete:-inf,0;0,0.25;inf,0.75")
        assert ch.triple() == TripleDensity(0.75, 0.25, 0.0)
        spec = channel_from_triple(0.8, 0.1, 0.1).spec_string()
        assert parse_channel(spec).spec_string() == spec
        assert BSC(0.110000001).spec_string() == "bsc:0.110000001"

    def test_parse_errors(self):
        for bad in ("bec", "foo:1", "bsc:0.7", "triple:0.5,0.5", "bec:abc",
                    "discrete:0,1;", "discrete:-1,0.5;1", "discrete:-1,0.2;1,0.2",
                    "discrete:-1,0.5;1,0.5", "discrete:-1,nan;1,nan"):
            with pytest.raises(InvalidChannelError):
                parse_channel(bad)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(1 - 0.500084041835, abs=1e-10)
