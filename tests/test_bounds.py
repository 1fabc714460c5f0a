import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarq import bounds
from polarq.channels import BEC, BSC, TripleDensity, triple_stats
from polarq.bounds import (
    BoundsSeries,
    bhattacharyya_step_check,
    bounds_series,
    bounds_series_mc,
    bracket_capacity,
    curve,
    lower_functional,
    universal_lower_bound,
)
from polarq.density_evolution import evolve_triple, triple_minus, triple_plus

BSC11 = TripleDensity(0.89, 0.0, 0.11)

# exact values of the level averages for the BSC(0.11) start, frozen from
# full-precision rational path enumeration (40-digit functional evaluation)
# at n <= 10; the n = 20 pair comes from two independent doubling routes
EXACT_BSC11 = {
    0: (-0.36155902777296125, 0.500084041835472),
    1: (-0.19128054376706042, 0.500084041835472),
    2: (-0.075056576049465081, 0.49841803498405287),
    10: (0.27908778280217779, 0.4743630705085528),
    20: (0.40307301297375925, 0.46575599185198147),
}


class TestLowerFunctional:
    def test_anchor_points(self):
        assert lower_functional(TripleDensity(1, 0, 0)) == 1.0
        assert lower_functional(TripleDensity(0, 1, 0)) == 0.0

    def test_bsc_start(self):
        assert lower_functional(BSC11) == pytest.approx(-0.361559027773, abs=1e-12)


class TestBoundsSeries:
    def test_exact_regression_values(self):
        series = bounds_series(BSC11, 20)
        for n, (lo, up) in EXACT_BSC11.items():
            assert series.lower[n] == pytest.approx(lo, abs=1e-9)
            assert series.upper[n] == pytest.approx(up, abs=1e-9)

    def test_published_three_decimal_values_shallow(self):
        series = bounds_series(BSC11, 10)
        # the printed -0.361 is truncated, not rounded (exact -0.36156)
        assert series.lower[0] == pytest.approx(-0.361, abs=1e-3)
        assert series.upper[0] == pytest.approx(0.500, abs=5e-4)
        assert series.lower[1] == pytest.approx(-0.191, abs=5e-4)
        assert series.upper[1] == pytest.approx(0.500, abs=5e-4)
        assert series.lower[2] == pytest.approx(-0.075, abs=5e-4)
        assert series.upper[2] == pytest.approx(0.498, abs=5e-4)
        assert series.upper[10] == pytest.approx(0.474, abs=5e-4)

    def test_bec_exact_for_all_levels(self):
        for eps in (0.1, 0.5, 0.9):
            series = bounds_series(BEC(eps).triple(), 12)
            assert np.abs(series.lower - (1 - eps)).max() < 1e-12
            assert np.abs(series.upper - (1 - eps)).max() < 1e-12

    def test_monotone_and_bracketing(self):
        series = bounds_series(BAWGN_TRIPLE, 14)
        assert np.all(np.diff(series.lower) >= -1e-12)
        assert np.all(np.diff(series.upper) <= 1e-12)
        assert np.all(series.lower <= series.upper + 1e-12)

    def test_matches_path_enumeration(self, monkeypatch):
        # with blocks of 2 and 4 states the depth-first split starts at
        # levels 2 and 3; each enumeration is checked at every block size
        for n in (4, 8, 12):
            fs, mis = [], []
            for path in itertools.product((0, 1), repeat=n):
                d = evolve_triple(BSC11, path)
                fs.append(lower_functional(d))
                mis.append(triple_stats(d)[0])
            for block in (2, 4, bounds._BLOCK):
                monkeypatch.setattr(bounds, "_BLOCK", block)
                series = bounds_series(BSC11, n)
                assert series.lower[n] == pytest.approx(np.mean(fs), abs=1e-10)
                assert series.upper[n] == pytest.approx(np.mean(mis), abs=1e-10)

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError, match="bounds_series_mc"):
            bounds_series(BSC11, 23)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            BoundsSeries(lower=np.array([0.2, 0.1]), upper=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            BoundsSeries(lower=np.array([0.1, 0.2]), upper=np.array([0.4, 0.5]))
        with pytest.raises(ValueError):
            BoundsSeries(lower=np.array([0.6]), upper=np.array([0.5]))


BAWGN_TRIPLE = TripleDensity(0.8413447460685429, 0.0, 0.15865525393145707)


class TestBracketCapacity:
    def test_perfect_channel_immediate(self):
        lo, up, used = bracket_capacity(TripleDensity(1, 0, 0), 1e-9)
        assert (lo, up, used) == (1.0, 1.0, 0)

    def test_bec_exact_at_level_zero(self):
        lo, up, used = bracket_capacity(BEC(0.5).triple(), 1e-9)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert up == pytest.approx(0.5, abs=1e-12)
        assert used == 0

    def test_bsc_stops_at_ceiling(self):
        lo, up, used = bracket_capacity(BSC11, 0.01, n_ceiling=20)
        assert used == 20
        assert lo == pytest.approx(EXACT_BSC11[20][0], abs=1e-9)
        assert up == pytest.approx(EXACT_BSC11[20][1], abs=1e-9)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            bracket_capacity(BSC11, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            bracket_capacity(BSC11, 0.1, n_ceiling=-1)


class TestMonteCarlo:
    def test_seed_repeatable(self):
        a = bounds_series_mc(BSC11, 20, 5000, seed=42)
        b = bounds_series_mc(BSC11, 20, 5000, seed=42)
        assert a == b

    def test_unbiased_for_bsc(self):
        est = bounds_series_mc(BSC11, 20, 100000, seed=0)
        lo, up = EXACT_BSC11[20]
        assert abs(est.lower - lo) < 3 * est.lower_radius / 1.96 + 1e-9
        assert abs(est.upper - up) < 3 * est.upper_radius / 1.96 + 1e-9

    def test_bec_estimates_cluster_on_capacity(self):
        est = bounds_series_mc(BEC(0.3).triple(), 15, 50000, seed=1)
        assert abs(est.lower - 0.7) < 3 * est.lower_radius / 1.96 + 1e-12
        assert abs(est.upper - 0.7) < 3 * est.upper_radius / 1.96 + 1e-12
        assert est.lower_radius > 0.0  # per-path values polarize, they are not constant

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            bounds_series_mc(BSC11, 5, 10, seed=0)


class TestUniversalBound:
    def test_perfect_capacity(self):
        assert universal_lower_bound(1.0, 50, 10) == 1.0

    def test_zero_capacity_clamped(self):
        assert universal_lower_bound(0.0, 50, 10) == 0.0

    def test_half_capacity_frozen_value(self):
        val = universal_lower_bound(0.5, 200, 18)
        assert val == pytest.approx(0.043695940831862456, abs=1e-9)

    def test_grid_refinement_stable(self):
        coarse = universal_lower_bound(0.5, 200, 14)
        fine = universal_lower_bound(0.5, 400, 14)
        assert abs(coarse - fine) < 1e-3

    def test_below_every_family_member(self):
        # the clamped minimum cannot exceed any member's clamped bound,
        # with members evaluated through the independent series route
        from polarq.bounds import _constraint_family
        val = universal_lower_bound(0.6, 25, 10)
        ps, es, ms = _constraint_family(0.6, 25)
        for j in range(0, 25, 4):
            member = bounds_series(TripleDensity(ps[j], es[j], ms[j]), 10).lower[-1]
            assert val <= max(member, 0.0) + 1e-12


class TestStepProperties:
    def test_martingale_steps_random(self):
        rng = np.random.default_rng(2)
        x = rng.random((100000, 3))
        x /= x.sum(axis=1, keepdims=True)
        from polarq.bounds import _lower_functional_arrays
        from polarq.channels import _bhattacharyya_arrays, _mutual_info_arrays
        from polarq.density_evolution import _double_level

        p, e, m = x.T
        children = _double_level(p, e, m)  # minus block, then plus block
        pm, em, mm = (c[:p.size] for c in children)
        pp, ep, mp = (c[p.size:] for c in children)
        mi = _mutual_info_arrays(p, e, m)
        assert np.max((_mutual_info_arrays(pp, ep, mp)
                       + _mutual_info_arrays(pm, em, mm)) / 2 - mi) < 1e-12
        low = _lower_functional_arrays(p, e, m)
        assert np.min((_lower_functional_arrays(pp, ep, mp)
                       + _lower_functional_arrays(pm, em, mm)) / 2 - low) > -1e-12

    def test_bhattacharyya_bounds_on_simplex_grid(self):
        # exhaustive simplex sweep with step 0.001
        step = 0.001
        ticks = np.arange(0, 1 + step / 2, step)
        p, e = np.meshgrid(ticks, ticks, indexing="ij")
        keep = p + e <= 1.0 + 1e-12
        p, e = p[keep], e[keep]
        m = np.maximum(1.0 - p - e, 0.0)
        from polarq.channels import _bhattacharyya_arrays
        from polarq.density_evolution import _double_level
        z = _bhattacharyya_arrays(p, e, m)
        children = _double_level(p, e, m)  # minus block, then plus block
        pm, em, mm = (c[:p.size] for c in children)
        pp, ep, mp = (c[p.size:] for c in children)
        assert np.max(_bhattacharyya_arrays(pm, em, mm) - 2 * z) < 1e-12
        assert np.max(_bhattacharyya_arrays(pp, ep, mp) - 2 * z**1.5) < 1e-12

    def test_scalar_check_examples(self):
        assert bhattacharyya_step_check(BSC11) == (True, True)
        assert bhattacharyya_step_check(TripleDensity(1, 0, 0)) == (True, True)
        z = triple_stats(BSC11)[1]
        z_minus = triple_stats(triple_minus(BSC11))[1]
        z_plus = triple_stats(triple_plus(BSC11))[1]
        assert z == pytest.approx(0.6258, abs=5e-5)
        assert z_minus == pytest.approx(0.7936, abs=5e-5)
        assert z_plus == pytest.approx(0.3916, abs=5e-5)
        assert 2 * z == pytest.approx(1.2516, abs=5e-5)
        assert 2 * z**1.5 == pytest.approx(0.9901, abs=5e-5)


class TestCurve:
    def test_bec_rows_are_identity(self):
        for cap, lo, up in curve("bec", 7, 10):
            assert lo == pytest.approx(cap, abs=1e-11)
            assert up == pytest.approx(cap, abs=1e-11)

    def test_single_point_at_perfect_capacity(self):
        rows = curve("bsc", 1, 8, cap_max=1.0)
        assert rows == [(1.0, 1.0, 1.0)]

    def test_small_grid_ordering(self):
        n, points = 10, 7
        fams = {f: np.array(curve(f, points, n)) for f in ("bec", "bsc", "bawgn", "universal")}
        caps = fams["bec"][:, 0]
        for f in ("bsc", "bawgn"):
            assert np.all(fams[f][:, 2] <= caps + 1e-9)
        for f in ("bsc", "bawgn"):
            assert np.all(fams["universal"][:, 1] <= fams[f][:, 1] + 1e-12)

    def test_per_state_clamp_is_sound(self):
        # the clamped lower bound may only rise above the paper's clamped
        # L_10, and must stay below a deeper upper bound on the same rate
        from polarq.bounds import _bawgn_for_capacity, _bsc_for_capacity
        for family, solve in (("bsc", _bsc_for_capacity), ("bawgn", _bawgn_for_capacity)):
            for cap, lo, _ in curve(family, 4, 10, cap_min=0.05, cap_max=0.8):
                d0 = solve(cap).triple()
                paper = bounds_series(d0, 10).lower[-1]
                assert max(paper, 0.0) - 1e-12 <= lo
                assert lo <= bounds_series(d0, 20).upper[-1] + 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            curve("laplace", 5, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            curve("bsc", 1, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            universal_lower_bound(0.5, 5, -1)
        with pytest.raises(ValueError, match="e_grid"):
            curve("universal", 1, 4, e_grid=0)
        with pytest.raises(ValueError, match="e_grid"):
            universal_lower_bound(0.5, 0, 4)
        for family, points, limits in (("universal", 1, {"cap_max": 1.5}),
                                       ("universal", 3, {"cap_min": -0.2}),
                                       ("bsc", 1, {"cap_max": 1.5})):
            with pytest.raises(ValueError, match="capacities"):
                curve(family, points, 6, **limits)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # n = 15 is one level past the block, so the walks share the pool
        n = 15
        assert 2**n > bounds._BLOCK

        def outputs():
            rows = [curve(family, 3, n) for family in ("bsc", "bawgn", "universal")]
            return np.array(rows).tobytes(), universal_lower_bound(0.5, 33, n)

        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(bounds, "_WORKERS", workers)
            results.append(outputs())
            with pytest.raises(ValueError, match="nonnegative"):
                curve("bsc", 2, -1)
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_family_point_memory_is_bounded(self, monkeypatch):
        # depth-first blocks keep the n = 20 walk far below its 2^20 states
        # (three 8 MiB arrays a level when whole levels are doubled)
        tracemalloc.start()
        try:
            curve("bsc", 1, 20)
            peak = tracemalloc.get_traced_memory()[1]
            # each pooled walk holds its own block stack
            workers = 2
            monkeypatch.setattr(bounds, "_WORKERS", workers)
            tracemalloc.reset_peak()
            curve("universal", 1, 20, e_grid=2)
            pooled_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert pooled_peak < workers * 16 * 2**20


def _ordered(raw):
    p, e, m = np.array(raw) / sum(raw)
    return (p, e, m) if p >= m else (m, e, p)


# single triples (p, e, m) with p >= m
ordered_triple = st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(
    lambda t: sum(t) > 0.0).map(_ordered)


class TestDegradation:
    @given(ordered_triple, st.integers(0, 8), st.floats(0.0, 1.0), st.booleans())
    def test_degraded_start_never_raises_the_clamped_bounds(self, x, n, t, erase):
        # erase a fraction t of both signed masses, or cross them over with
        # probability t/2; neither may raise E max(F, 0) or E I at level n
        p, e, m = x
        if erase:
            worse = ((1 - t) * p, e + t * (p + m), (1 - t) * m)
        else:
            q = t / 2
            worse = ((1 - q) * p + q * m, e, (1 - q) * m + q * p)
        _, clamped, info = bounds._walk_levels(p, e, m, n, n)[n]
        _, worse_clamped, worse_info = bounds._walk_levels(*worse, n, n)[n]
        assert worse_clamped <= clamped + 1e-15
        assert worse_info <= info + 1e-15
