import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarq import codec
from polarq.channels import BEC, BSC
from polarq.codec import (
    PolarCode,
    _sc_batch,
    check_llrs,
    encode,
    erasure_sc_decode,
    index_to_path,
    quantized_sc_decode,
    sc_decode,
    var_llrs,
)
from polarq.quantizer import QuantizerSpec, levels, quantize, sign_quantize

INF = math.inf


def kron_generator(n):
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        g = np.kron(g, np.array([[1, 0], [1, 1]], dtype=np.uint8))
    return g


class TestIndexToPath:
    def test_paper_figure_example(self):
        assert index_to_path(3, 3) == (0, 1, 1)

    def test_corners(self):
        assert index_to_path(0, 3) == (0, 0, 0)
        assert index_to_path(7, 3) == (1, 1, 1)

    def test_most_significant_first(self):
        assert index_to_path(4, 3) == (1, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_path(8, 3)
        with pytest.raises(ValueError):
            index_to_path(-1, 3)


class TestEncode:
    def test_kernel_rows(self):
        assert np.array_equal(encode([1, 0]), [1, 0])
        assert np.array_equal(encode([0, 1]), [1, 1])

    def test_last_row_all_ones(self):
        assert np.array_equal(encode([0, 0, 0, 1]), [1, 1, 1, 1])

    def test_matches_generator_matrix(self):
        rng = np.random.default_rng(0)
        for n in range(0, 7):
            g = kron_generator(n)
            u = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
            assert np.array_equal(encode(u), (u @ g) % 2)

    def test_involution_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for bits in itertools.product((0, 1), repeat=1 << n):
                u = np.array(bits, dtype=np.uint8)
                assert np.array_equal(encode(encode(u)), u)

    def test_involution_randomized_large(self):
        rng = np.random.default_rng(1)
        for n in (5, 8, 10, 12):
            u = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
            assert np.array_equal(encode(encode(u)), u)

    def test_batched(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 2, size=(5, 16), dtype=np.uint8)
        single = np.stack([encode(row) for row in u])
        assert np.array_equal(encode(u), single)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode([0, 1, 0])


class TestNodeRules:
    def test_check_rule_matches_tanh_form(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-6, 6, 5000)
        b = rng.uniform(-6, 6, 5000)
        direct = 2 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        assert np.abs(check_llrs(a, b) - direct).max() < 1e-12

    def test_check_rule_keeps_sign_at_small_llrs(self):
        # log-uniform magnitudes in [1e-20, 10]: a log1p form that cancels
        # to rounding noise gets thousands of these signs wrong
        rng = np.random.default_rng(0)
        a, b = 10.0 ** rng.uniform(-20, 1, (2, 20000)) * rng.choice([-1.0, 1.0], (2, 20000))
        out = check_llrs(a, b)
        assert np.array_equal(np.sign(out), np.sign(a) * np.sign(b))
        small = (np.abs(a) <= 1) & (np.abs(b) <= 1)
        direct = 2 * np.arctanh(np.tanh(a[small] / 2) * np.tanh(b[small] / 2))
        assert np.max(np.abs(out[small] - direct) / np.abs(direct)) <= 1e-14

    def test_check_rule_on_python_floats(self):
        assert check_llrs(1.0, 2.0) == check_llrs(np.array([1.0]), np.array([2.0]))[0]

    def test_check_sentinels(self):
        a = np.array([INF, INF, 0.0, INF, -INF, 5.0, INF, 0.3, -INF])
        b = np.array([-INF, INF, INF, 3.0, 3.0, 0.0, 0.5, -INF, 5e-324])
        out = check_llrs(a, b)
        assert np.array_equal(out, [-INF, INF, 0.0, 3.0, -3.0, 0.0, 0.5, -0.3, -5e-324])

    def test_var_sentinels(self):
        a = np.array([INF, INF, -INF, 2.0])
        b = np.array([-INF, INF, -INF, 3.0])
        flip = np.array([False, False, False, False])
        assert np.array_equal(var_llrs(a, b, flip), [0.0, INF, -INF, 5.0])
        # a decided-one flips the sign of the first argument
        assert var_llrs(np.array([INF]), np.array([INF]), np.array([True]))[0] == 0.0


def check_llrs_formula(a, b):
    """The check rule written as one expression: ``check_llrs`` must give its bytes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        mag = np.minimum(abs_a, abs_b) + (np.log1p(np.exp(-(abs_a + abs_b)))
                                          - np.log1p(np.exp(-np.abs(abs_a - abs_b))))
        mag = np.where(np.isnan(mag), INF, mag)
        mag = np.where((np.minimum(abs_a, abs_b) < 1.0) & (np.maximum(abs_a, abs_b) < INF),
                       2.0 * np.arctanh(np.tanh(abs_a / 2.0) * np.tanh(abs_b / 2.0)), mag)
    return np.sign(a) * np.sign(b) * mag


def var_llrs_formula(a, b, flip):
    """The variable rule written as one expression: ``var_llrs`` must give its bytes."""
    s = np.where(flip, -np.asarray(a, dtype=float), a)
    with np.errstate(invalid="ignore"):
        out = np.asarray(b, dtype=float) + s
    return np.where(np.isnan(out), 0.0, out)


# signed zeros, infinities, the tanh/log switch at 1, the smallest subnormal
# and 745 and 800, where exp underflows to a subnormal and to 0
SENTINELS = [s * x for s in (1.0, -1.0)
             for x in (0.0, INF, 1.0, float(np.nextafter(1.0, 0.0)), 5e-324, 745.0, 800.0)]


@st.composite
def message_pairs(draw):
    """Equal-length float arrays a, b and flip bits, sentinels mixed in."""
    size = draw(st.integers(1, 64))
    messages = st.one_of(st.floats(allow_nan=False), st.sampled_from(SENTINELS))
    a = draw(arrays(np.float64, size, elements=messages))
    b = draw(arrays(np.float64, size, elements=messages))
    flip = draw(arrays(np.bool_, size))
    return a, b, flip


class TestNodeRuleBytes:
    def test_signed_zero_products(self):
        assert np.signbit(check_llrs(np.array([0.0]), np.array([-3.0])))[0]
        assert not np.signbit(check_llrs(np.array([-0.0]), np.array([3.0])))[0]

    @given(message_pairs())
    def test_check_rule_bytes(self, pair):
        a, b, _ = pair
        for x, y in ((a, b), (a[:, None], b[None, :]), (a[0], b[0])):
            assert np.asarray(check_llrs(x, y)).tobytes() == check_llrs_formula(x, y).tobytes()

    @given(message_pairs())
    def test_var_rule_bytes(self, pair):
        a, b, flip = pair
        assert var_llrs(a, b, flip).tobytes() == var_llrs_formula(a, b, flip).tobytes()


class TestScDecode:
    def test_noiseless_all_zero(self):
        code = PolarCode(n=3, info_set=frozenset(range(8)))
        u, roots = sc_decode([INF] * 8, code, np.random.default_rng(0))
        assert np.all(u == 0)
        assert np.all(roots == INF)

    def test_two_bit_hand_example(self):
        code = PolarCode(n=1, info_set=frozenset({0, 1}))
        a, b = 1.7, -0.6
        u, roots = sc_decode([a, b], code, np.random.default_rng(0))
        first = 2 * math.atanh(math.tanh(a / 2) * math.tanh(b / 2))
        u0 = 1 if first < 0 else 0
        second = b + (1 - 2 * u0) * a
        assert u[0] == u0 and u[1] == (1 if second < 0 else 0)
        assert roots[0] == pytest.approx(first, abs=1e-12)
        assert roots[1] == pytest.approx(second, abs=1e-12)

    def test_frozen_positions_zero(self):
        rng = np.random.default_rng(4)
        code = PolarCode(n=4, info_set=frozenset({1, 5, 9, 13}))
        frozen = sorted(set(range(16)) - code.info_set)
        for _ in range(20):
            llrs = rng.normal(size=16)
            u, _ = sc_decode(llrs, code, rng)
            assert np.all(u[frozen] == 0)

    def test_bec_sequentially_determined_word_recovered(self):
        # brute-force oracle: bit i is determined when every u that matches
        # the true prefix and the observations agrees on u_i (the decoder
        # marginalizes all later bits uniformly, frozen ones included).  A
        # word whose info bits are all determined must be recovered exactly.
        rng = np.random.default_rng(5)
        n, size = 3, 8
        decided = 0
        for _ in range(300):
            k = int(rng.integers(1, size + 1))
            info = frozenset(int(i) for i in rng.choice(size, k, replace=False))
            code = PolarCode(n=n, info_set=info)
            u_true = np.zeros(size, dtype=np.uint8)
            u_true[sorted(info)] = rng.integers(0, 2, size=k)
            x = encode(u_true)
            erased = rng.random(size) < rng.uniform(0.1, 0.6)

            def bit_is_determined(i):
                seen = set()
                tail = size - i - 1
                for head in (0, 1):
                    for bits in itertools.product((0, 1), repeat=tail):
                        cand = np.concatenate([u_true[:i], [head], bits]).astype(np.uint8)
                        if np.all(encode(cand)[~erased] == x[~erased]):
                            seen.add(head)
                            break
                return len(seen) == 1

            if not all(bit_is_determined(i) for i in sorted(info)):
                continue
            decided += 1
            llrs = np.where(erased, 0.0, np.where(x == 0, INF, -INF))
            u_hat, _ = sc_decode(llrs, code, rng)
            assert np.array_equal(u_hat, u_true)
        assert decided > 50

    def test_bec_nonzero_roots_never_mislead(self):
        # genie view: with a correct prefix, a nonzero root statistic on the
        # erasure channel always carries the true sign
        rng = np.random.default_rng(55)
        size = 16
        code = PolarCode(n=4, info_set=frozenset(range(size)))
        for t in range(100):
            x = np.zeros(size, dtype=np.uint8)  # all-zero word
            erased = rng.random(size) < 0.5
            llrs = np.where(erased, 0.0, INF)
            u_hat, roots = sc_decode(llrs, code, np.random.default_rng((6, t)))
            first_tie = np.flatnonzero(roots == 0.0)
            upto = first_tie[0] if first_tie.size else size
            assert np.all(roots[:upto] > 0)
            assert np.all(u_hat[:upto] == 0)


class TestPublicDecoders:
    DECODERS = {
        "exact": sc_decode,
        "quantized": lambda word, code, rng: quantized_sc_decode(
            word, code, QuantizerSpec(delta=1.0, m_sat=8.0), rng),
        "erasure": erasure_sc_decode,
    }

    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    def test_nan_word_is_refused(self, decoder):
        code = PolarCode(n=2, info_set=frozenset(range(4)))
        with pytest.raises(ValueError):
            self.DECODERS[decoder]([np.nan, INF, 0.0, -INF], code, np.random.default_rng(0))

    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    def test_infinite_word_decodes_to_zeros(self, decoder):
        code = PolarCode(n=2, info_set=frozenset(range(4)))
        out = self.DECODERS[decoder]([INF] * 4, code, np.random.default_rng(0))
        assert np.array_equal(out[0] if isinstance(out, tuple) else out, np.zeros(4))


class TestQuantizedDecode:
    def test_saturated_inputs_decode_zero(self):
        spec = QuantizerSpec(delta=1.0, m_sat=4.0)
        code = PolarCode(n=4, info_set=frozenset(range(16)))
        u, roots = quantized_sc_decode([4.0] * 16, code, spec, np.random.default_rng(0))
        assert np.all(u == 0)
        assert np.all(np.isin(roots, levels(spec)))

    def test_messages_stay_on_alphabet(self):
        rng = np.random.default_rng(6)
        spec = QuantizerSpec(delta=0.5, m_sat=3.0)
        code = PolarCode(n=5, info_set=frozenset(range(0, 32, 2)))
        grid = levels(spec)
        for _ in range(50):
            llrs = rng.normal(scale=2.0, size=32)
            _, roots = quantized_sc_decode(llrs, code, spec, rng)
            assert np.all(np.isin(roots, grid))

    def test_fine_quantizer_matches_exact(self):
        # with delta = 1e-3 and M = 30 the quantized decoder is near exact
        rng = np.random.default_rng(7)
        spec = QuantizerSpec(delta=1e-3, m_sat=30.0)
        n, size, trials = 8, 256, 1000
        code = PolarCode(n=n, info_set=frozenset(range(size // 2, size)))
        ch = BSC(0.11)
        agree = 0
        for t in range(trials):
            llrs = ch.sample_llr(np.random.default_rng((9, t)), size=size)
            u1, _ = sc_decode(llrs, code, np.random.default_rng((1, t)))
            u2, _ = quantized_sc_decode(llrs, code, spec, np.random.default_rng((1, t)))
            agree += np.array_equal(u1, u2)
        assert agree >= 0.99 * trials


class TestErasureDecode:
    def test_all_confident_inputs(self):
        code = PolarCode(n=3, info_set=frozenset(range(8)))
        u = erasure_sc_decode([INF] * 8, code, np.random.default_rng(0))
        assert np.all(u == 0)

    def test_rejects_unquantized(self):
        code = PolarCode(n=1, info_set=frozenset({0, 1}))
        with pytest.raises(ValueError):
            erasure_sc_decode([0.5, -1.0], code, np.random.default_rng(0))

    def test_matches_exact_on_bec(self):
        rng = np.random.default_rng(8)
        code = PolarCode(n=6, info_set=frozenset(range(20, 64)))
        ch = BEC(0.5)
        for t in range(200):
            llrs = ch.sample_llr(np.random.default_rng((2, t)), size=64)
            u1, _ = sc_decode(llrs, code, np.random.default_rng((3, t)))
            u2 = erasure_sc_decode(sign_quantize(llrs), code, np.random.default_rng((3, t)))
            assert np.array_equal(u1, u2)

    def test_matches_quantized_on_three_levels(self):
        # with M = delta the uniform quantizer realizes the sign algebra
        rng = np.random.default_rng(9)
        spec = QuantizerSpec(delta=4.0, m_sat=4.0)
        code = PolarCode(n=5, info_set=frozenset(range(10, 32)))
        for t in range(300):
            signs = rng.choice([-INF, 0.0, INF], size=32, p=[0.25, 0.3, 0.45])
            u1 = erasure_sc_decode(signs, code, np.random.default_rng((4, t)))
            u2, _ = quantized_sc_decode(np.sign(signs) * 4.0, code, spec,
                                        np.random.default_rng((4, t)))
            assert np.array_equal(u1, u2)


@st.composite
def decoder_batches(draw, elements):
    """(words, code, tie bits) at n <= 6 with any info set; words drawn from ``elements``."""
    n = draw(st.integers(0, 6))
    size = 1 << n
    shape = (draw(st.integers(1, 4)), size)
    info = draw(st.sets(st.integers(0, size - 1)))
    words = draw(arrays(np.float64, shape, elements=elements))
    ties = draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
    return words, PolarCode(n=n, info_set=frozenset(info)), ties


def batch_major_sc(words, code, ties, check, var, genie):
    """SC over (trials, N) messages ``words`` with the node maps ``check`` and ``var``.

    The reference for ``_sc_batch``, which runs node-major in tiles and on
    level indices under a quantizer: each node splits on the last axis and
    runs in one call, and the roots keep the dtype of ``words``.  Returns
    (u_hat, roots, errors).
    """
    info = code.info_mask()
    u_hat = np.zeros(words.shape, dtype=np.uint8)
    roots = np.empty(words.shape, dtype=words.dtype)
    errors = np.zeros(words.shape, dtype=bool) if genie else None

    def descend(block, base):
        if block.shape[1] == 1:
            stat = block[:, 0]
            roots[:, base] = stat
            hard = (stat < 0) | ((stat == 0) & (ties[:, base] == 1))
            if genie:
                errors[:, base] = hard
            elif info[base]:
                u_hat[:, base] = hard
            return u_hat[:, base:base + 1]
        half = block.shape[1] // 2
        a, b = block[:, :half], block[:, half:]
        x_left = descend(check(a, b), base)
        x_right = descend(var(a, b, x_left.astype(bool)), base + half)
        return np.concatenate([x_left ^ x_right, x_right], axis=1)

    descend(words, 0)
    return u_hat, roots, errors


def reference_sc(decoder, words, code, ties, spec, genie):
    """``batch_major_sc`` on ``decoder``'s alphabet; a quantizer runs on float levels."""
    if decoder == "exact":
        return batch_major_sc(words, code, ties, check_llrs, var_llrs, genie)
    if decoder == "erasure":
        return batch_major_sc(np.sign(words).astype(np.int8), code, ties,
                              codec._check_signs, codec._var_signs, genie)
    return batch_major_sc(quantize(spec, words), code, ties,
                          lambda a, b: quantize(spec, check_llrs(a, b)),
                          lambda a, b, flip: quantize(spec, var_llrs(a, b, flip)), genie)


def assert_same_decoding(got, want):
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
    assert (got[2] is None and want[2] is None) or np.array_equal(got[2], want[2])


class TestDecoderAlphabets:
    @given(decoder_batches(st.sampled_from([-INF, 0.0, INF])), st.booleans())
    def test_erasure_is_exact_sc_on_bec_symbols(self, batch, genie):
        # any sign pattern, not only channel outputs of a codeword
        words, code, ties = batch
        u1, roots1, err1 = _sc_batch(words, code, ties, genie=genie)
        u2, roots2, err2 = _sc_batch(words, code, ties, signs=True, genie=genie)
        assert np.array_equal(u1, u2)
        assert np.array_equal(np.sign(roots1), roots2)
        assert (err1 is None and err2 is None) or np.array_equal(err1, err2)

    @given(decoder_batches(st.floats(allow_nan=False)), st.booleans(),
           st.floats(0.05, 4.0), st.integers(1, 8))
    def test_quantized_inputs_map_to_themselves(self, batch, genie, delta, half_levels):
        words, code, ties = batch
        spec = QuantizerSpec(delta=delta, m_sat=half_levels * delta)
        raw = _sc_batch(words, code, ties, spec=spec, genie=genie)
        pre = _sc_batch(quantize(spec, words), code, ties, spec=spec, genie=genie)
        assert_same_decoding(raw, pre)

    # a cap of 0 levels sends every check node down the path without a table
    @pytest.mark.parametrize("cap", [codec._CHECK_TABLE_MAX_LEVELS, 0], ids=["table", "no-table"])
    @given(decoder_batches(st.floats(allow_nan=False)), st.booleans(),
           st.floats(0.05, 4.0), st.integers(1, 8))
    def test_index_decoder_matches_float_reference(self, cap, batch, genie, delta, half_levels):
        words, code, ties = batch
        spec = QuantizerSpec(delta=delta, m_sat=half_levels * delta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_CHECK_TABLE_MAX_LEVELS", cap)
            got = _sc_batch(words, code, ties, spec=spec, genie=genie)
        assert_same_decoding(got, reference_sc("quantized", words, code, ties, spec, genie))

    # a tile of 1 message runs every node of more than one row a row at a time
    @pytest.mark.parametrize("tile", [codec._TILE, 1], ids=["default-tile", "tile-1"])
    @pytest.mark.parametrize("decoder", ["exact", "quantized", "erasure"])
    @given(decoder_batches(st.floats(allow_nan=False)), st.booleans(),
           st.floats(0.05, 4.0), st.integers(1, 8))
    def test_node_major_tiles_match_batch_major(self, tile, decoder, batch, genie, delta,
                                                half_levels):
        words, code, ties = batch
        spec = QuantizerSpec(delta=delta, m_sat=half_levels * delta)
        alphabet = {"exact": {}, "quantized": {"spec": spec}, "erasure": {"signs": True}}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_TILE", tile)
            got = _sc_batch(words, code, ties, genie=genie, **alphabet[decoder])
        assert all(out.shape == words.shape and out.flags.c_contiguous
                   for out in got if out is not None)
        assert_same_decoding(got, reference_sc(decoder, words, code, ties, spec, genie))

    # empty and full information sets are drawn too: every node skipped, none
    @pytest.mark.parametrize("tile", [codec._TILE, 1], ids=["default-tile", "tile-1"])
    @pytest.mark.parametrize("decoder", ["exact", "quantized", "erasure"])
    @given(decoder_batches(st.floats(allow_nan=False)), st.floats(0.05, 4.0), st.integers(1, 8))
    def test_skipping_frozen_subtrees_matches_batch_major(self, tile, decoder, batch, delta,
                                                         half_levels):
        words, code, ties = batch
        spec = QuantizerSpec(delta=delta, m_sat=half_levels * delta)
        alphabet = {"exact": {}, "quantized": {"spec": spec}, "erasure": {"signs": True}}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_TILE", tile)
            u_hat, roots, errors = _sc_batch(words, code, ties, discard_roots=True,
                                             **alphabet[decoder])
        want = reference_sc(decoder, words, code, ties, spec, False)[0]
        assert u_hat.dtype == want.dtype and u_hat.flags.c_contiguous
        assert np.array_equal(u_hat, want)
        assert roots is None and errors is None


# the benchmark's tracer times these names by swapping the module attributes,
# so _sc_batch must look each one up in the module when it runs
NODE_OPS = ("check_llrs", "var_llrs", "_check_signs", "_var_signs")


@pytest.fixture
def node_calls(monkeypatch):
    """Calls per name in NODE_OPS, counted by wrappers set as the module attributes."""
    calls = dict.fromkeys(NODE_OPS, 0)
    for name in NODE_OPS:
        def counted(*args, _name=name, _op=getattr(codec, name)):
            calls[_name] += 1
            return _op(*args)
        monkeypatch.setattr(codec, name, counted)
    return calls


def decode_n3(info_set, **decoder):
    words = np.random.default_rng(0).normal(size=(3, 8))
    code = PolarCode(n=3, info_set=frozenset(info_set))
    return _sc_batch(words, code, np.zeros(words.shape, dtype=np.uint8), **decoder)


@pytest.mark.parametrize("alphabet, cap, called", [
    ({}, codec._CHECK_TABLE_MAX_LEVELS, {"check_llrs", "var_llrs"}),
    ({"signs": True}, codec._CHECK_TABLE_MAX_LEVELS, {"_check_signs", "_var_signs"}),
    ({"spec": QuantizerSpec(delta=1.0, m_sat=8.0)}, 0, {"check_llrs"}),
], ids=["exact", "erasure", "quantized-no-table"])
def test_node_ops_are_called_through_module_attributes(monkeypatch, node_calls, alphabet, cap,
                                                       called):
    monkeypatch.setattr(codec, "_CHECK_TABLE_MAX_LEVELS", cap)
    decode_n3(range(8), **alphabet)
    assert node_calls == {name: 7 if name in called else 0 for name in NODE_OPS}


# without roots or genie errors, the info set {7} leaves the var op on each level of
# the path to index 7 and the empty set no node; any other mode runs all 7 + 7
@pytest.mark.parametrize("mode", [{"discard_roots": True}, {}, {"genie": True},
                                  {"genie": True, "discard_roots": True}],
                         ids=["skipping", "roots", "genie", "genie-discarding-roots"])
@pytest.mark.parametrize("info_set, skipped_calls", [({7}, (0, 3)), (set(), (0, 0)),
                                                     (set(range(8)), (7, 7))],
                         ids=["last-index", "empty", "full"])
def test_frozen_subtrees_are_skipped_only_without_roots_or_genie(node_calls, info_set,
                                                                 skipped_calls, mode):
    _, roots, _ = decode_n3(info_set, **mode)
    skipping = mode == {"discard_roots": True}
    assert (node_calls["check_llrs"], node_calls["var_llrs"]) == (skipped_calls if skipping
                                                                  else (7, 7))
    assert (roots is None) == mode.get("discard_roots", False)


class TestPolarCode:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolarCode(n=2, info_set=frozenset({4}))

    # a float or bool index was truncated by int(), so {1.5, 1} became {1}
    @pytest.mark.parametrize("info_set", [{1.5, 1}, [1.7], {True}, [3.0], [np.float64(2.0)],
                                          [np.bool_(True)]])
    def test_non_integer_indices_refused(self, info_set):
        with pytest.raises(ValueError, match="integers"):
            PolarCode(n=2, info_set=info_set)

    def test_integer_index_kinds_accepted(self):
        for info_set in (range(1, 3), {1, 2}, [np.int64(1), np.uint8(2)], np.array([2, 1])):
            assert PolarCode(n=2, info_set=info_set).info_set == frozenset({1, 2})

    def test_rate(self):
        code = PolarCode(n=3, info_set=frozenset({0, 1, 2, 3}))
        assert code.rate == 0.5
        assert code.block_length == 8
