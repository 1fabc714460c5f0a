import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarq import density_evolution
from polarq.channels import BAWGN, BEC, BSC, LlrDensity, TripleDensity, _error_rate_arrays
from polarq.codec import check_llrs, index_to_path
from polarq.density_evolution import (
    ResourceCeilingError,
    SynthesizedFamily,
    _check_index_table,
    _de_check_vec,
    _de_var_vec,
    _double_level,
    bit_error_prob,
    choose_info_set,
    de_check,
    de_var,
    evolve_triple,
    gallager_trajectory,
    rate_for_union_bound,
    synthesize,
    synthesize_triples,
    triple_minus,
    triple_plus,
)
from polarq.quantizer import QuantizerSpec, levels, quantize, quantize_density, quantize_index

INF = math.inf


def approx_triple(d, expect, tol=1e-12):
    return (d.p == pytest.approx(expect[0], abs=tol)
            and d.e == pytest.approx(expect[1], abs=tol)
            and d.m == pytest.approx(expect[2], abs=tol))


class TestTripleTransforms:
    def test_perfect_channel_fixed_point(self):
        one = TripleDensity(1, 0, 0)
        assert approx_triple(triple_plus(one), (1, 0, 0))
        assert approx_triple(triple_minus(one), (1, 0, 0))

    def test_bsc_example(self):
        d = TripleDensity(0.89, 0, 0.11)
        assert approx_triple(triple_plus(d), (0.7921, 0.1958, 0.0121))
        assert approx_triple(triple_minus(d), (0.8042, 0.0, 0.1958))

    def test_bec_matches_erasure_recursion(self):
        d = TripleDensity(0.5, 0.5, 0)
        assert approx_triple(triple_plus(d), (0.75, 0.25, 0))
        assert approx_triple(triple_minus(d), (0.25, 0.75, 0))

    def test_bec_closure_exact(self):
        d = TripleDensity(0.7, 0.3, 0)
        assert triple_plus(d).m == 0.0
        assert triple_minus(d).m == 0.0

    def test_mass_conserved_random(self):
        rng = np.random.default_rng(0)
        x = rng.random((100000, 3))
        x /= x.sum(axis=1, keepdims=True)
        # one call yields both children: the minus block, then the plus block
        p, e, m = _double_level(x[:, 0], x[:, 1], x[:, 2])
        assert np.abs(p + e + m - 1.0).max() < 1e-12
        assert min(p.min(), e.min(), m.min()) >= 0.0

    def test_error_rate_pair_average_identity(self):
        # (E+ + E-)/2 equals E + m(p - m)/2: the error functional is not
        # invariant under the transform pair except when m = 0
        rng = np.random.default_rng(1)
        x = rng.random((1000, 3))
        x /= x.sum(axis=1, keepdims=True)
        for p, e, m in x:
            d = TripleDensity(p, e, m)
            err = bit_error_prob(d)
            pair = 0.5 * (bit_error_prob(triple_plus(d)) + bit_error_prob(triple_minus(d)))
            assert pair == pytest.approx(err + m * (p - m) / 2, abs=1e-12)


def _normalized(raw):
    x = np.array(raw)
    return x / x.sum(axis=1, keepdims=True)


# batches of random triples (p, e, m), each with positive total mass
triples = st.lists(
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda t: sum(t) > 0.0),
    min_size=1, max_size=16).map(_normalized)
# the same with p >= m in every row: the sign masses of a row are swapped
# where m > p
ordered_triples = triples.map(
    lambda x: np.where((x[:, 0] < x[:, 2])[:, None], x[:, ::-1], x))


def _children(x):
    """(minus, plus) children of the rows of ``x``, each as (p, e, m)."""
    kids = _double_level(x[:, 0], x[:, 1], x[:, 2])
    size = x.shape[0]
    return tuple(c[:size] for c in kids), tuple(c[size:] for c in kids)


class TestDoubleLevelProperties:
    @given(triples)
    def test_closed_forms(self, x):
        p, e, m = x.T
        minus, plus = _children(x)
        want_minus = (p * p + m * m, 1 - (1 - e) ** 2, 2 * p * m)
        want_plus = (p * p + 2 * p * e, e * e + 2 * p * m, m * m + 2 * e * m)
        for got, want in zip(minus + plus, want_minus + want_plus):
            assert np.abs(got - want).max() < 1e-12

    @given(triples)
    def test_masses_nonnegative_and_conserved(self, x):
        for p, e, m in _children(x):
            assert min(p.min(), e.min(), m.min()) >= 0.0
            assert np.abs(p + e + m - 1.0).max() < 1e-12

    @given(ordered_triples)
    def test_sign_order_preserved(self, x):
        # p+ - m+ = (p - m)(p + m + 2e) and p- - m- = (p - m)^2; at p ~ m the
        # minus difference may round slightly below 0
        p, e, m = x.T
        (pm, _, mm), (pp, _, mp) = _children(x)
        assert np.all(pm - mm >= -1e-15) and np.all(pp - mp >= -1e-15)
        assert np.abs((pm - mm) - (p - m) ** 2).max() < 1e-12
        assert np.abs((pp - mp) - (p - m) * (p + m + 2 * e)).max() < 1e-12

    @given(ordered_triples, st.floats(0.0, 1.0))
    def test_degradation_preserved(self, x, t):
        # erasing a fraction t of both signed masses degrades a state with
        # p >= m, and never lowers either child's error rate m + e/2
        p, e, m = x.T
        worse = np.stack([(1 - t) * p, e + t * (p + m), (1 - t) * m], axis=1)
        for kid, worse_kid in zip(_children(x), _children(worse)):
            assert np.all(_error_rate_arrays(*worse_kid) - _error_rate_arrays(*kid)
                          >= -1e-12)


class TestEvolve:
    def test_empty_path_identity(self):
        d = TripleDensity(0.6, 0.3, 0.1)
        assert evolve_triple(d, ()) is d

    def test_absorbing_state(self):
        one = TripleDensity(1, 0, 0)
        for path in ((0,), (1, 1), (0, 1, 0, 1)):
            assert approx_triple(evolve_triple(one, path), (1, 0, 0))

    def test_path_011_composition(self):
        d0 = TripleDensity(0.5, 0.5, 0)
        manual = triple_plus(triple_plus(triple_minus(d0)))
        got = evolve_triple(d0, (0, 1, 1))
        assert approx_triple(got, (manual.p, manual.e, manual.m), tol=0)

    def test_bec_erasure_recursion_any_path(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            path = tuple(rng.integers(0, 2, size=8))
            z = 0.37
            for b in path:
                z = z * z if b else 1 - (1 - z) * (1 - z)
            got = evolve_triple(TripleDensity(1 - 0.37, 0.37, 0), path)
            assert got.e == pytest.approx(z, abs=1e-12)
            assert got.m == 0.0


class TestFiniteAlphabetDe:
    spec = QuantizerSpec(delta=1.0, m_sat=2.0)

    def test_var_point_masses(self):
        a = LlrDensity(levels(self.spec), [0, 0, 0, 1.0, 0])   # at +1
        b = LlrDensity(levels(self.spec), [0, 1.0, 0, 0, 0])   # at -1
        out = de_var(a, b, self.spec)
        assert out.mass_at(0.0) == 1.0

    def test_var_uniform_enumeration(self):
        uni = LlrDensity(levels(self.spec), np.full(5, 0.2))
        out = de_var(uni, uni, self.spec)
        # 25 equally likely sums; 6 of them are >= +2 after saturation
        assert out.mass_at(2.0) == pytest.approx(6 / 25, abs=1e-15)
        assert out.is_symmetric(tol=1e-15)

    def test_var_saturation_mass(self):
        full = LlrDensity(levels(self.spec), [0, 0, 0, 0, 1.0])
        out = de_var(full, full, self.spec)
        assert out.mass_at(2.0) == 1.0

    def test_check_point_masses(self):
        top = LlrDensity(levels(self.spec), [0, 0, 0, 0, 1.0])
        out = de_check(top, top, self.spec)
        expect = quantize(self.spec, 2 * math.atanh(math.tanh(1.0) ** 2))
        assert out.mass_at(expect) == 1.0

    def test_check_zero_absorbs(self):
        rng = np.random.default_rng(3)
        probs = rng.random(5)
        probs /= probs.sum()
        d = LlrDensity(levels(self.spec), probs)
        out = de_check(d, d, self.spec)
        e = d.mass_at(0.0)
        assert out.mass_at(0.0) >= 1 - (1 - e) ** 2 - 1e-12

    def test_symmetry_preserved(self):
        probs = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        d = LlrDensity(levels(self.spec), probs)
        for op in (de_var, de_check):
            out = op(d, d, self.spec)
            assert out.is_symmetric(tol=1e-15)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_outside_alphabet_rejected(self):
        bad = LlrDensity([-0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            de_var(bad, bad, self.spec)


def _spec_with(n_levels, m_sat=8.0):
    return QuantizerSpec(delta=2.0 * m_sat / (n_levels - 1), m_sat=m_sat)


def _random_rows(rng, count, n_levels):
    """Random nonnegative rows, about a fifth of their entries exactly zero."""
    rows = rng.random((count, n_levels))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    return rows


# |Q| = 3..65 and 2001 at M = 8, delta = 0.01 at M = 10, and the specs the
# other tests of this module use
TABLE_SPECS = ([_spec_with(q) for q in range(3, 66, 2)] + [_spec_with(2001)]
               + [QuantizerSpec(0.01, 10.0), QuantizerSpec(0.5, 4.0), QuantizerSpec(1.0, 4.0),
                  QuantizerSpec(4.0, 4.0), QuantizerSpec(1.0, 2.0)])


class TestPairKernels:
    """The batched pair transforms against one row at a time, bit for bit,
    and the check step's self-pair sum against its full pair sum."""

    def test_check_table_equals_full_grid(self):
        for spec in TABLE_SPECS:
            grid = levels(spec)
            a, b = np.meshgrid(grid, grid, indexing="ij")
            full = quantize_index(spec, check_llrs(a, b))
            table = _check_index_table(spec)
            assert table.dtype == np.int32
            assert np.array_equal(table, full), spec

    # 37 rows, so blocks end mid-array; a block of 101 pairs holds 11 rows
    # at |Q| = 3, 4 at |Q| = 5 and a single row from |Q| = 9 on
    @pytest.mark.parametrize("pair_block", [1, 101, density_evolution._PAIR_BLOCK])
    @pytest.mark.parametrize("n_levels", [3, 5, 17, 65, 129, 513])
    def test_check_matches_per_row_bincount(self, monkeypatch, pair_block, n_levels):
        spec = _spec_with(n_levels)
        rng = np.random.default_rng(n_levels)
        rows, others = _random_rows(rng, 37, n_levels), _random_rows(rng, 37, n_levels)
        monkeypatch.setattr(density_evolution, "_PAIR_BLOCK", pair_block)
        got = _de_check_vec(rows, others, spec)
        table = _check_index_table(spec).ravel()
        want = np.array([np.bincount(table, np.outer(r, o).ravel(), minlength=n_levels)
                         for r, o in zip(rows, others)])
        assert np.array_equal(got, want)

    # 37 random laws, then four edge laws: all mass at 0, at +M, at -M, and
    # half at each of +-M.  A block of 101 pairs holds 11 rows at |Q| = 3,
    # 4 at |Q| = 5 and a single row from |Q| = 17 on, so blocks end mid-array.
    @pytest.mark.parametrize("pair_block", [101, density_evolution._PAIR_BLOCK])
    @pytest.mark.parametrize("n_levels", [3, 5, 17, 65, 129, 513, 2001])
    def test_self_pairs_match_full_pair_sum(self, monkeypatch, pair_block, n_levels):
        spec = _spec_with(n_levels)
        k = spec.half_levels
        rows = np.vstack([_random_rows(np.random.default_rng(n_levels), 37, n_levels),
                          np.zeros((4, n_levels))])
        rows[37, k] = rows[38, -1] = rows[39, 0] = 1.0
        rows[40, [0, -1]] = 0.5
        rows /= rows.sum(axis=1, keepdims=True)
        monkeypatch.setattr(density_evolution, "_PAIR_BLOCK", pair_block)
        got = _de_check_vec(rows, rows, spec)
        want = _de_check_vec(rows, rows.copy(), spec)
        # both sums add the same nonnegative products, so neither cancels;
        # they round in different orders, which on these laws moved no mass
        # by more than one ulp of the law's mass 1, so 4 ulps leaves room
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4 * np.finfo(float).eps)
        # the edge laws' products are exact in either order
        assert np.array_equal(got[37:], want[37:])
        # every pair's mass is a product of two input masses, so a law of
        # mass 2 gives exactly four times the output, level 0 included
        doubled = 2.0 * rows
        assert np.array_equal(_de_check_vec(doubled, doubled, spec), 4.0 * got)

    @pytest.mark.parametrize("channel, n_levels, n", [(BSC(0.11), 17, 10),
                                                       (BAWGN(0.9786941246157008), 65, 12)])
    def test_synthesize_matches_full_pair_sum(self, monkeypatch, channel, n_levels, n):
        spec = _spec_with(n_levels)
        d0 = quantize_density(channel.llr_density(), spec)
        got = synthesize(d0, n, spec).error_probs()
        check = density_evolution._de_check_vec
        monkeypatch.setattr(density_evolution, "_de_check_vec",
                            lambda rows, others, s: check(rows, others.copy(), s))
        want = synthesize(d0, n, spec).error_probs()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    # the tails hold k = (|Q| - 1)/2 terms, so from |Q| = 17 on they take
    # numpy's unrolled summation and from |Q| = 259 on its pairwise recursion
    @pytest.mark.parametrize("n_levels", [3, 5, 17, 65, 129, 513, 2001])
    def test_var_matches_per_row_convolution(self, n_levels):
        spec = _spec_with(n_levels)
        k = spec.half_levels
        rng = np.random.default_rng(n_levels)
        rows, others = _random_rows(rng, 37, n_levels), _random_rows(rng, 37, n_levels)
        got = _de_var_vec(rows, others, spec)
        for row, r, o in zip(got, rows, others):
            conv = np.convolve(r, o)
            want = conv[k:3 * k + 1]
            want[0] += conv[:k].sum()
            want[-1] += conv[3 * k + 1:].sum()
            assert np.array_equal(row, want)

    def test_check_memory_is_bounded(self):
        # all 4096 rows at once would hold about 277 MB of products and
        # indices; the blocks hold under 1 MB of each
        spec = _spec_with(65)
        rows = _random_rows(np.random.default_rng(0), 4096, 65)
        _check_index_table(spec)
        tracemalloc.start()
        try:
            _de_check_vec(rows, rows, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_full_pair_check_memory_is_bounded(self):
        # the same bound on the sum over all |Q|^2 pairs of two laws
        spec = _spec_with(65)
        rows = _random_rows(np.random.default_rng(0), 4096, 65)
        others = rows.copy()
        _check_index_table(spec)
        tracemalloc.start()
        try:
            _de_check_vec(rows, others, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSynthesize:
    def test_level_zero_is_input(self):
        spec = QuantizerSpec(delta=1.0, m_sat=2.0)
        d0 = quantize_density(BSC(0.11).llr_density(), spec)
        fam = synthesize(d0, 0, spec)
        assert np.allclose(fam.data[0], d0.probs)

    def test_every_row_is_a_density_at_depth(self):
        # rounding in the pair transforms, left to accumulate over 16
        # levels, moves row sums beyond LlrDensity's 1e-12 tolerance
        spec = QuantizerSpec(delta=0.5, m_sat=8.0)  # |Q| = 33
        d0 = quantize_density(BSC(0.11).llr_density(), spec)
        fam = synthesize(d0, 16, spec)
        for i in range(fam.block_length):
            fam.density(i)

    def test_triples_match_per_path_evolution(self):
        d0 = BSC(0.11).triple()
        for n in (1, 3, 6, 10):
            fam = synthesize_triples(d0, n)
            for i in (0, 1, (1 << n) - 1, (1 << n) // 3):
                want = evolve_triple(d0, index_to_path(i, n))
                assert approx_triple(fam.density(i), (want.p, want.e, want.m), tol=1e-13)
        # every index, exactly: pins the gather from the kernel's
        # minus-block-first layout into index order
        d0 = TripleDensity(0.6, 0.3, 0.1)
        for n in (0, 1, 2, 5):
            fam = synthesize_triples(d0, n)
            for i in range(1 << n):
                assert fam.density(i) == evolve_triple(d0, index_to_path(i, n))

    def test_exhaustive_leaf_enumeration_oracle(self):
        # exact distribution of every root message at n = 2 by enumerating
        # all alphabet^4 leaf words through the decoder's own node rules
        spec = QuantizerSpec(delta=1.0, m_sat=2.0)
        d0 = quantize_density(BSC(0.2).llr_density(), spec)
        fam = synthesize(d0, 2, spec)
        grid = levels(spec)
        probs = {l: d0.mass_at(l) for l in grid}

        def root_message(i, leaves):
            a = np.asarray(leaves, dtype=float)
            path = index_to_path(i, 2)
            msgs = a
            for b in path:
                half = msgs.size // 2
                x, y = msgs[:half], msgs[half:]
                if b:
                    nxt = x + y
                else:
                    nxt = check_llrs(x, y)
                msgs = quantize(spec, nxt)
                msgs = np.atleast_1d(msgs)
            return msgs[0]

        for i in range(4):
            dist = {l: 0.0 for l in grid}
            for leaves in itertools.product(grid, repeat=4):
                w = math.prod(probs[l] for l in leaves)
                if w == 0.0:
                    continue
                dist[root_message(i, leaves)] += w
            got = fam.density(i)
            for l in grid:
                assert got.mass_at(l) == pytest.approx(dist[l], abs=1e-12), (i, l)

    def test_three_level_family_mean_error_two_routes(self):
        # the family's mean error probability equals the expectation of the
        # error functional over uniformly weighted paths
        d0 = BSC(0.11).triple()
        for n in (1, 4, 8):
            fam = synthesize_triples(d0, n)
            via_family = fam.error_probs().mean()
            total = 0.0
            for path in itertools.product((0, 1), repeat=n):
                d = evolve_triple(d0, path)
                total += bit_error_prob(d)
            assert via_family == pytest.approx(total / (1 << n), abs=1e-12)

    def test_bec_family_mean_error_conserved(self):
        d0 = BEC(0.5).triple()
        fam = synthesize_triples(d0, 10)
        assert fam.error_probs().mean() == pytest.approx(bit_error_prob(d0), abs=1e-12)

    def test_resource_guard(self):
        spec = QuantizerSpec(delta=0.01, m_sat=10.0)  # 2001 levels
        d0 = quantize_density(BSC(0.11).llr_density(), spec)
        with pytest.raises(ResourceCeilingError):
            synthesize(d0, 20, spec)

    def test_budget_is_not_a_parameter(self):
        spec = QuantizerSpec(delta=1.0, m_sat=1.0)
        d0 = quantize_density(BSC(0.11).llr_density(), spec)
        with pytest.raises(TypeError):
            synthesize(d0, 1, spec, op_budget=1.0)

    def test_csv_rows(self):
        fam = synthesize_triples(BEC(0.5).triple(), 1)
        rows = list(fam.csv_rows())
        assert rows[0] == "index,p_err,p,e,m"
        assert rows[1].startswith("0,0.375,")
        assert rows[2].startswith("1,0.125,")


class TestBitErrorProb:
    def test_triples(self):
        assert bit_error_prob(TripleDensity(1, 0, 0)) == 0.0
        assert bit_error_prob(TripleDensity(0, 1, 0)) == 0.5
        assert bit_error_prob(TripleDensity(0.89, 0, 0.11)) == pytest.approx(0.11, abs=1e-15)

    def test_density(self):
        spec = QuantizerSpec(delta=1.0, m_sat=1.0)
        d = LlrDensity(levels(spec), [0.2, 0.3, 0.5])
        assert bit_error_prob(d) == pytest.approx(0.2 + 0.15, abs=1e-15)


class TestChooseInfoSet:
    def test_bec_two_channels(self):
        fam = synthesize_triples(BEC(0.5).triple(), 1)
        assert list(choose_info_set(fam, 1)) == [1]
        assert fam.error_probs() == pytest.approx([0.375, 0.125], abs=1e-15)

    def test_extremes(self):
        fam = synthesize_triples(BEC(0.5).triple(), 3)
        assert list(choose_info_set(fam, 8)) == list(range(8))
        assert list(choose_info_set(fam, 0)) == []
        with pytest.raises(ValueError):
            choose_info_set(fam, 9)

    def test_ties_take_smaller_index(self):
        fam = synthesize_triples(TripleDensity(1, 0, 0), 3)
        assert list(choose_info_set(fam, 3)) == [0, 1, 2]

    def test_rate_for_union_bound(self):
        fam = synthesize_triples(BEC(0.5).triple(), 1)
        assert rate_for_union_bound(fam, 0.4) == 1
        assert rate_for_union_bound(fam, 0.6) == 2
        assert rate_for_union_bound(fam, 0.01) == 0


class TestGallager:
    def test_zero_stays_zero(self):
        traj = gallager_trajectory(0.0, (0, 1, 0, 0, 1))
        assert np.all(traj == 0.0)

    def test_check_step(self):
        traj = gallager_trajectory(0.1, (0,))
        assert traj[1] == pytest.approx(0.18, abs=1e-15)

    def test_variable_step(self):
        traj = gallager_trajectory(0.1, (1,))
        assert traj[1] == 0.1

    def test_never_improves(self):
        rng = np.random.default_rng(4)
        for q0 in np.linspace(0.01, 0.5, 25):
            for _ in range(40):
                path = tuple(rng.integers(0, 2, size=12))
                traj = gallager_trajectory(q0, path)
                assert np.all(np.diff(traj) >= 0.0)
                assert traj[-1] <= 0.5 + 1e-15

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            gallager_trajectory(0.6, (0,))
