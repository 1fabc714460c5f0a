import math

import numpy as np
import pytest

from polarq import sim
from polarq.channels import BAWGN, BEC, BSC
from polarq.cli import main, read_code_file
from polarq.codec import PolarCode, _sc_batch, encode
from polarq.density_evolution import choose_info_set, synthesize, synthesize_triples
from polarq.quantizer import QuantizerSpec, quantize_density
from polarq.sim import (
    TrialReport,
    genie_bit_errors,
    _chunk_states,
    _trial_stream,
    simulate_block_error,
    union_bound,
)
from test_acceptance import _binomial_rejections


def make_code(n, k, channel):
    fam = synthesize_triples(channel.triple(), n)
    info = frozenset(int(i) for i in choose_info_set(fam, k))
    return PolarCode(n=n, info_set=info), fam


class TestReproducibility:
    def test_identical_reports(self):
        code, _ = make_code(6, 24, BEC(0.4))
        a = simulate_block_error(code, BEC(0.4), "erasure", 3000, seed=11)
        b = simulate_block_error(code, BEC(0.4), "erasure", 3000, seed=11)
        assert a == b

    def test_thread_count_invariant(self):
        code, _ = make_code(6, 20, BSC(0.08))
        a = genie_bit_errors(code, BSC(0.08), "erasure", 9000, seed=5, threads=1)
        b = genie_bit_errors(code, BSC(0.08), "erasure", 9000, seed=5, threads=4)
        assert a.block_errors == b.block_errors
        assert np.array_equal(a.per_index_errors, b.per_index_errors)

    def test_seed_changes_outcome(self):
        code, _ = make_code(6, 24, BEC(0.4))
        a = simulate_block_error(code, BEC(0.4), "erasure", 3000, seed=11)
        b = simulate_block_error(code, BEC(0.4), "erasure", 3000, seed=12)
        assert a.block_errors != b.block_errors


class TestBlockError:
    def test_noiseless_channel(self):
        code, _ = make_code(5, 16, BSC(0.1))
        for decoder in ("exact", "erasure", QuantizerSpec(delta=1.0, m_sat=4.0)):
            rep = simulate_block_error(code, BSC(0.0), decoder, 200, seed=0)
            assert rep.block_errors == 0
            assert rep.bler == 0.0
            assert rep.ci95 > 0.0  # one-pseudo-error floor

    def test_bec_exact_equals_erasure_shared_seed(self):
        code, _ = make_code(7, 60, BEC(0.5))
        a = simulate_block_error(code, BEC(0.5), "exact", 4000, seed=3)
        b = simulate_block_error(code, BEC(0.5), "erasure", 4000, seed=3)
        assert a.block_errors == b.block_errors

    def test_report_fields(self):
        code, _ = make_code(4, 8, BEC(0.3))
        rep = simulate_block_error(code, BEC(0.3), "erasure", 500, seed=9)
        assert isinstance(rep, TrialReport)
        assert rep.trials == 500
        assert rep.bler == rep.block_errors / 500
        assert rep.decoder == "erasure"
        p = rep.bler
        assert rep.ci95 == pytest.approx(1.959963984540054 * math.sqrt(p * (1 - p) / 500))

    def test_invalid_decoder(self):
        code, _ = make_code(3, 4, BEC(0.3))
        with pytest.raises(ValueError):
            simulate_block_error(code, BEC(0.3), "soft", 10, seed=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        code, _ = make_code(3, 4, BEC(0.3))
        with pytest.raises(ValueError, match="threads"):
            simulate_block_error(code, BEC(0.3), "erasure", 10, seed=0, threads=threads)

    # seeded counts: any decoder change that is not bit-exact moves them
    @pytest.mark.parametrize("random_messages, counts", [
        (False, {"exact": 515, "q:delta=1,M=8": 542, "erasure": 887}),
        (True, {"exact": 536, "q:delta=1,M=8": 565, "erasure": 906}),
    ], ids=["all-zero", "random-messages"])
    def test_block_errors_pinned(self, tmp_path, random_messages, counts):
        path = tmp_path / "code.txt"
        assert main(["construct", "--channel", "bsc:0.11", "--quantizer", "q:delta=1,M=8",
                     "--n", "8", "--rate", "0.375", "--out", str(path)]) == 0
        code, _ = read_code_file(str(path))
        got = {}
        for decoder in ("exact", QuantizerSpec(delta=1.0, m_sat=8.0), "erasure"):
            rep = simulate_block_error(code, BSC(0.11), decoder, 2000, seed=5,
                                       random_messages=random_messages)
            got[rep.decoder] = rep.block_errors
        assert got == counts


class TestGenie:
    def test_noiseless_all_zero(self):
        code = PolarCode(n=5, info_set=frozenset(range(32)))
        rep = genie_bit_errors(code, BEC(0.0), "erasure", 300, seed=0)
        assert np.all(rep.per_index_errors == 0)

    def test_bec_index_ordering_at_n1(self):
        # check level is worse than variable level: 0.375 vs 0.125
        code = PolarCode(n=1, info_set=frozenset({0, 1}))
        rep = genie_bit_errors(code, BEC(0.5), "erasure", 20000, seed=1)
        rates = rep.per_index_rates
        assert rates[0] > rates[1]
        assert rates[0] == pytest.approx(0.375, abs=0.015)
        assert rates[1] == pytest.approx(0.125, abs=0.015)

    def test_rates_match_density_evolution(self):
        n, trials = 6, 20000
        ch = BSC(0.11)
        code = PolarCode(n=n, info_set=frozenset())
        rep = genie_bit_errors(code, ch, "erasure", trials, seed=2)
        pred = synthesize_triples(ch.triple(), n).error_probs()
        sig = np.sqrt(pred * (1 - pred) / trials)
        z = np.abs(rep.per_index_rates - pred) / np.maximum(sig, 1e-12)
        assert z.max() < 4.0

    def test_erasure_decoder_genie_on_bawgn(self):
        from polarq.channels import BAWGN
        n, trials = 4, 20000
        ch = BAWGN(1.2)
        code = PolarCode(n=n, info_set=frozenset())
        rep = genie_bit_errors(code, ch, "erasure", trials, seed=4)
        pred = synthesize_triples(ch.triple(), n).error_probs()
        sig = np.sqrt(pred * (1 - pred) / trials)
        z = np.abs(rep.per_index_rates - pred) / np.maximum(sig, 1e-12)
        assert z.max() < 4.0

    # |Q| = 17 and 9 (M = 8); trials are independent, so each index's genie
    # error count is exactly Binomial(trials, DE error probability) when the
    # decoder and DE compute the same quantized node maps on the exact BSC law
    @pytest.mark.parametrize("delta", [1.0, 2.0])
    def test_quantized_decoder_genie_matches_quantized_de(self, delta):
        n, trials, seed, level = 8, 100000, 5, 1e-3
        spec = QuantizerSpec(delta, 8.0)
        code = PolarCode(n=n, info_set=frozenset())
        rep = genie_bit_errors(code, BSC(0.11), spec, trials, seed, threads=2)

        def prediction(eps):
            law = quantize_density(BSC(eps).llr_density(), spec)
            return synthesize(law, n, spec).error_probs()

        rejected, min_adj = _binomial_rejections(rep.per_index_errors, trials,
                                                 prediction(0.11), level)
        # power: the same counts must reject the prediction for a nearby channel
        rejected_wrong, _ = _binomial_rejections(rep.per_index_errors, trials,
                                                 prediction(0.112), level)
        print(f"|Q| = {spec.n_levels}: {len(rejected)} indices rejected (min adjusted p "
              f"{min_adj:.3g}); BSC(0.112) prediction rejected at {len(rejected_wrong)}")
        assert not rejected, f"indices {rejected} reject the DE prediction (min adjusted p {min_adj:.3g})"
        assert rejected_wrong, "the test cannot tell BSC(0.11) counts from the BSC(0.112) prediction"


class TestUnionBound:
    def test_empty_set(self):
        fam = synthesize_triples(BEC(0.5).triple(), 3)
        assert union_bound(fam, ()) == 0.0

    def test_bec_single_index(self):
        fam = synthesize_triples(BEC(0.5).triple(), 1)
        assert union_bound(fam, {1}) == pytest.approx(0.125, abs=1e-15)
        assert union_bound(fam, {0, 1}) == pytest.approx(0.5, abs=1e-15)

    def test_noiseless_full_set(self):
        fam = synthesize_triples(BEC(0.0).triple(), 4)
        assert union_bound(fam, range(16)) == 0.0

    def test_out_of_range(self):
        fam = synthesize_triples(BEC(0.5).triple(), 2)
        with pytest.raises(ValueError):
            union_bound(fam, {4})

    @staticmethod
    def quantized_bsc_family():
        spec = QuantizerSpec(delta=1.0, m_sat=8.0)
        return synthesize(quantize_density(BSC(0.11).llr_density(), spec), 4, spec)

    def test_repeated_index_refused(self):
        fam = self.quantized_bsc_family()
        assert union_bound(fam, {3}) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="repeat"):
            union_bound(fam, [3, 3])

    @pytest.mark.parametrize("info_set", [[3.7], [3.0], np.array([1.0, 2.0]), [True]])
    def test_non_integer_index_refused(self, info_set):
        with pytest.raises(ValueError, match="integers"):
            union_bound(self.quantized_bsc_family(), info_set)

    def test_sets_ranges_and_integer_arrays_agree(self):
        fam = self.quantized_bsc_family()
        want = union_bound(fam, {0, 1, 2})
        for info_set in (range(3), [2, 0, 1], np.array([2, 1, 0]), np.arange(3, dtype=np.uint8),
                         frozenset(np.arange(3))):
            assert union_bound(fam, info_set) == want

    def test_random_messages_match_all_zero_statistics(self):
        # channel symmetry: the random-message mode is a sanity check whose
        # block-error rate must agree with the all-zero run
        code, _ = make_code(6, 28, BEC(0.45))
        a = simulate_block_error(code, BEC(0.45), "erasure", 8000, seed=13)
        b = simulate_block_error(code, BEC(0.45), "erasure", 8000, seed=13,
                                 random_messages=True)
        sigma = math.sqrt(max(a.bler * (1 - a.bler), 1e-9) / 8000)
        assert abs(a.bler - b.bler) < 4 * sigma

    def test_genie_block_error_below_union_bound(self):
        n, trials = 8, 30000
        ch = BSC(0.11)
        fam = synthesize_triples(ch.triple(), n)
        info = frozenset(int(i) for i in choose_info_set(fam, 64))
        code = PolarCode(n=n, info_set=info)
        rep = genie_bit_errors(code, ch, "erasure", trials, seed=6)
        assert rep.bler <= union_bound(fam, info) + 3 * rep.ci95


def _numpy_state(seed, trial):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))).state


def _live_state(rng):
    """What a Generator's next draws depend on: the buffered half word only if set."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] * state["has_uint32"]


def _reference_chunk(code, channel, spec, signs, seed, start, stop, genie, random_messages):
    """The chunk as one _trial_stream per trial gives it: inputs and counts."""
    size = code.block_length
    info = code.info_indices()
    llrs = np.empty((stop - start, size))
    ties = np.empty((stop - start, size), dtype=np.uint8)
    messages = np.zeros((stop - start, size), dtype=np.uint8) if random_messages else None
    for row, trial in enumerate(range(start, stop)):
        rng = _trial_stream(seed, trial)
        llrs[row] = channel.sample_llr(rng, size=size)
        ties[row] = rng.integers(0, 2, size=size, dtype=np.uint8)
        if random_messages:
            messages[row, info] = rng.integers(0, 2, size=info.size, dtype=np.uint8)
    if random_messages:
        llrs *= 1.0 - 2.0 * encode(messages)
    u_hat, _, errors = _sc_batch(llrs, code, ties, spec=spec, signs=signs, genie=genie,
                                 discard_roots=True)
    if genie:
        counts = (int(errors[:, info].any(axis=1).sum()), errors.sum(axis=0))
    else:
        reference = messages if random_messages else 0
        counts = (int((u_hat != reference)[:, info].any(axis=1).sum()), None)
    return llrs, ties, messages, counts


class _HalfWordBSC(BSC):
    """A BSC whose sampling leaves half a 64-bit word buffered for the next draw."""

    def sample_llr(self, rng, size):
        rng.integers(0, 1 << 32, size=1, dtype=np.uint32)
        return super().sample_llr(rng, size)


class TestChunkStreams:
    """_run_chunk derives every trial's stream in bulk; _trial_stream defines it.

    These compare the bulk derivation with numpy's own SeedSequence, PCG64 and
    bounded integers, so that a numpy change that moves either fails here.
    """

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**40])
    def test_states_match_numpy(self, seed):
        sampled = np.random.default_rng(seed % 997).integers(0, 2**31, size=16).tolist()
        for trial in sampled + [2**32 - 1, 2**32, 2**40]:
            got, = _chunk_states(seed, trial, trial + 1)
            assert got == _numpy_state(seed, trial), trial
        # chunks across 2**32 mix one- and two-word spawn keys
        for start, stop in ((0, 40), (4093, 4100), (2**32 - 3, 2**32 + 3)):
            got = list(_chunk_states(seed, start, stop))
            assert got == [_numpy_state(seed, t) for t in range(start, stop)], (start, stop)

    @pytest.mark.parametrize("before", ["whole-words", "half-word-buffered"])
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 1024])
    def test_word_ties_match_integers(self, size, before):
        # _run_chunk draws the coins as ceil(size/4) uint32 words and keeps
        # the top bit of every byte; a half word buffered by the draws before
        # them is read first, as integers(0, 2, dtype=uint8) reads it
        words = -(-size // 4)
        for trial in range(5):
            want = _trial_stream(3, trial)
            got = _trial_stream(3, trial)
            for rng in (want, got):
                if before == "whole-words":
                    rng.random(size)
                else:
                    rng.integers(0, 1 << 32, size=3, dtype=np.uint32)
            coins = want.integers(0, 2, size=size, dtype=np.uint8)
            buf = got.integers(0, 1 << 32, size=words, dtype=np.uint32).astype("<u4")
            assert np.array_equal(buf.view(np.uint8)[:size] >> 7, coins)
            assert _live_state(got) == _live_state(want)

    @pytest.mark.parametrize("start", [0, 4093])
    @pytest.mark.parametrize("genie, random_messages", [(False, False), (False, True),
                                                        (True, False)],
                             ids=["all-zero", "random-messages", "genie"])
    @pytest.mark.parametrize("channel, decoder", [
        (BSC(0.11), QuantizerSpec(delta=1.0, m_sat=8.0)), (BEC(0.4), "erasure"),
        (BAWGN(0.9), "exact"), (_HalfWordBSC(0.11), "erasure")],
        ids=["bsc", "bec", "bawgn", "bsc-half-word"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
    def test_chunk_matches_reference_loop(self, monkeypatch, n, channel, decoder, genie,
                                          random_messages, start):
        size = 1 << n
        code = PolarCode(n=n, info_set=frozenset(range(size // 2, size)))
        _, spec, signs = sim._normalize_decoder(decoder)
        stop = start + 7
        seen = {}

        def spy_encode(u):
            seen["messages"] = u.copy()
            return encode(u)

        def spy_sc_batch(llrs, code, ties, **kwargs):
            seen["llrs"], seen["ties"] = llrs.copy(), ties.copy()
            return _sc_batch(llrs, code, ties, **kwargs)

        monkeypatch.setattr(sim, "encode", spy_encode)
        monkeypatch.setattr(sim, "_sc_batch", spy_sc_batch)
        got = sim._run_chunk(code, channel, spec, signs, 11, start, stop, genie,
                             random_messages=random_messages)
        llrs, ties, messages, counts = _reference_chunk(code, channel, spec, signs, 11, start,
                                                        stop, genie, random_messages)
        assert np.array_equal(seen["llrs"], llrs)
        assert np.array_equal(seen["ties"], ties)
        if random_messages:
            assert np.array_equal(seen["messages"], messages)
        assert got[0] == counts[0]
        if genie:
            assert np.array_equal(got[1], counts[1])
        else:
            assert got[1] is None

    def test_negative_seed_refused(self, tmp_path, capsys):
        code, _ = make_code(3, 4, BEC(0.3))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            simulate_block_error(code, BEC(0.3), "erasure", 10, seed=-1)
        path = tmp_path / "code.txt"
        assert main(["construct", "--channel", "bec:0.3", "--quantizer", "q:sign", "--n", "3",
                     "--rate", "0.5", "--out", str(path)]) == 0
        assert main(["simulate", "--code", str(path), "--channel", "bec:0.3", "--decoder",
                     "erasure", "--trials", "10", "--seed", "-1",
                     "--out", str(tmp_path / "sim.csv")]) == 2
        assert "expected non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()
