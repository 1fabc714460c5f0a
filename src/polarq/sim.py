"""Seeded Monte Carlo estimation of block and per-index error rates.

Randomness contract: trial t draws its channel observations and its
tie-break coins from the stream seeded by SeedSequence(seed, spawn_key=(t,)),
so any worker can regenerate any trial independently and results do not
depend on how trials are split across workers.  Trials are aggregated with
integer counters in fixed chunk order, which keeps reports bit-identical
for any thread count.

``_trial_stream`` is the reference definition of a trial's stream.  A chunk
derives the same streams in bulk instead of building a SeedSequence and a
PCG64 per trial.  SeedSequence's hash is uint32 multiply/xor-shift
arithmetic: the seed's words are mixed once in Python, then each trial's
spawn word is mixed, and the pool expanded to four uint64 seed words, as
numpy uint32 operations over the chunk's trial indices.  PCG64's set-seed
step (two 128-bit LCG steps) runs per trial in Python ints, and its result
is assigned to one PCG64 reused for the whole chunk.  The tie coins are
drawn as whole uint32 words: at range 2 numpy's bounded uint8 draw never
rejects and keeps the top bit of each little-endian byte of ceil(N/4)
next_uint32 words, so the chunk draws those words with
``integers(0, 2**32, dtype=uint32)``, which reads a buffered half word first
just as the uint8 draw does, and shifts their bytes right by 7.
tests/test_sim.py compares both with numpy, so a numpy change that moved
either would fail there instead of silently moving every stream.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelModel
from .codec import PolarCode, _sc_batch, encode
from .density_evolution import SynthesizedFamily
from .quantizer import QuantizerSpec, SignQuantizer
from .quantizer import quantize as quantize, sign_quantize as sign_quantize  # traced by perfbench

_Z95 = 1.959963984540054
_CHUNK = 4096  # fixed, so chunked results never depend on worker count

# SeedSequence's hash constants and PCG64's LCG multiplier, as in numpy
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass
class TrialReport:
    """Outcome of a seeded simulation run."""

    decoder: str
    trials: int
    block_errors: int
    bler: float
    ci95: float
    seed: int
    per_index_errors: np.ndarray | None = field(default=None, repr=False)

    @property
    def per_index_rates(self) -> np.ndarray | None:
        if self.per_index_errors is None:
            return None
        return self.per_index_errors / self.trials

    def csv_row(self, channel: ChannelModel, code: PolarCode) -> str:
        """One CSV line under TRIAL_CSV_HEADER; labels with commas are quoted."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(
            [self.decoder, channel.spec_string(), code.n, f"{code.rate:.10g}",
             self.trials, self.seed, self.block_errors, f"{self.bler:.10g}",
             f"{self.ci95:.10g}"])
        return buf.getvalue()


TRIAL_CSV_HEADER = "decoder,channel,n,rate,trials,seed,block_errors,bler,ci95"


def _normalize_decoder(decoder):
    """Map a decoder tag to (label, spec-or-None, signs flag)."""
    if decoder == "exact":
        return "exact", None, False
    if decoder == "erasure" or isinstance(decoder, SignQuantizer):
        return "erasure", None, True
    if isinstance(decoder, QuantizerSpec):
        return decoder.spec_string(), decoder, False
    raise ValueError(
        f"decoder must be 'exact', 'erasure' or a QuantizerSpec, got {decoder!r}")


def _trial_stream(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _uint32_words(value) -> list[int]:
    """SeedSequence's uint32 words of a non-negative integer, low word first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(const, mult):
    """SeedSequence's running hash constant, before and after each hash."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


# values are Python ints below 2**32 or uint32 arrays; the masks wrap the ints as arrays wrap
def _hashmix(value, consts):
    const, after = next(consts)
    value = (value ^ const) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _chunk_states(seed: int, start: int, stop: int):
    """PCG64 states of the streams ``_trial_stream`` gives trials start..stop-1."""
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # padded because a spawn key follows
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in run[_POOL_SIZE:]:
        pool = [_mix(p, _hashmix(word, consts)) for p in pool]
    # the spawn key, one word per trial below 2**32, mixed over the whole chunk
    trials = np.arange(start, stop, dtype=np.uint64)
    low = (trials & _MASK32).astype(np.uint32)
    pool = [_mix(np.full(trials.size, p, dtype=np.uint32), _hashmix(low, consts))
            for p in pool]
    high = (trials >> 32).astype(np.uint32)
    if high.any():  # from 2**32 on the key has a second word
        pool = [np.where(high > 0, _mix(p, _hashmix(high, consts)), p)
                for p in pool]
    # generate_state(4, np.uint64): eight words cycled from the pool, paired low first
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64)
             for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (state[i] | state[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2))
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # pcg64_set_seed: from state 0, step, add the seed, step
        value = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": value, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _run_chunk(code, channel, spec, signs, seed, start, stop, genie,
               random_messages=False):
    size = code.block_length
    batch = stop - start
    llrs = np.empty((batch, size))
    # one tie coin per byte of next_uint32 words; the bytes are shifted in place
    words = -(-size // 4)
    coin_words = np.empty((batch, words), dtype="<u4")
    messages = None
    if random_messages:
        messages = np.zeros((batch, size), dtype=np.uint8)
    info = code.info_indices()
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for row, state in enumerate(_chunk_states(seed, start, stop)):
        bits.state = state
        llrs[row] = channel.sample_llr(rng, size=size)
        coin_words[row] = rng.integers(0, 1 << 32, size=words, dtype=np.uint32)
        if random_messages and info.size:
            messages[row, info] = rng.integers(0, 2, size=info.size, dtype=np.uint8)
    coins = coin_words.view(np.uint8)
    coins >>= 7  # integers(0, 2, dtype=uint8) keeps each byte's top bit
    ties = coins[:, :size]
    if random_messages:
        # by channel symmetry a transmitted 1 mirrors the all-zero LLR law
        llrs *= 1.0 - 2.0 * encode(messages)
    u_hat, _, errors = _sc_batch(llrs, code, ties, spec=spec, signs=signs,
                                 genie=genie, discard_roots=True)
    if genie:
        wrong = errors[:, info].any(axis=1) if info.size else np.zeros(batch, bool)
        return int(wrong.sum()), errors.sum(axis=0).astype(np.int64)
    reference = messages if random_messages else 0
    wrong = ((u_hat != reference)[:, info].any(axis=1) if info.size
             else np.zeros(batch, bool))
    return int(wrong.sum()), None


def _ci95(block_errors: int, trials: int) -> float:
    # one pseudo-error floors the radius when no errors were observed
    p = max(block_errors, 1) / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials)


def _simulate(code, channel, decoder, trials, seed, genie, threads,
              random_messages=False):
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    label, spec, signs = _normalize_decoder(decoder)
    chunks = [(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK)]

    def work(bounds):
        return _run_chunk(code, channel, spec, signs, seed, bounds[0], bounds[1],
                          genie, random_messages=random_messages)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(c) for c in chunks]

    block_errors = sum(r[0] for r in results)
    per_index = None
    if genie:
        per_index = np.zeros(code.block_length, dtype=np.int64)
        for _, counts in results:
            per_index += counts
    return TrialReport(
        decoder=label,
        trials=trials,
        block_errors=block_errors,
        bler=block_errors / trials,
        ci95=_ci95(block_errors, trials),
        seed=seed,
        per_index_errors=per_index,
    )


def simulate_block_error(code: PolarCode, channel: ChannelModel, decoder,
                         trials: int, seed: int, *, threads: int = 1,
                         random_messages: bool = False) -> TrialReport:
    """Estimate the block-error rate of ``decoder`` on ``channel``.

    Transmits the all-zero codeword (the code is linear, the channel and the
    decoders symmetric, so this is lossless) and counts a block error
    whenever any information bit is decided wrong.  The erasure decoder's
    inputs are sign-quantized and the uniform quantizer is applied for a
    QuantizerSpec decoder automatically.

    ``random_messages`` encodes a random word per trial and flips the LLR
    signs accordingly; it exists as a symmetry sanity check, and a seeded
    test pins its block-error counts as it does the all-zero ones.
    """
    return _simulate(code, channel, decoder, trials, seed, genie=False,
                     threads=threads, random_messages=random_messages)


def genie_bit_errors(code: PolarCode, channel: ChannelModel, decoder,
                     trials: int, seed: int, *, threads: int = 1) -> TrialReport:
    """Per-index error rates with all prior decisions forced correct.

    Every index is evaluated (frozen or not); the report carries the error
    counts per index, with ``per_index_rates`` the empirical genie-aided
    error probabilities, and block statistics over the information set.
    """
    return _simulate(code, channel, decoder, trials, seed, genie=True,
                     threads=threads)


def union_bound(family: SynthesizedFamily, info_set) -> float:
    """Sum of the per-index error probabilities over ``info_set``.

    Upper-bounds the genie-aided block-error probability of the code using
    those indices.  Indices must be distinct integers: a repeated one would
    be counted twice and a fractional one truncated.
    """
    idx = np.sort(np.asarray(list(info_set)))
    if idx.size == 0:
        return 0.0
    if idx.dtype.kind not in "iu":
        raise ValueError(f"information indices must be integers, got {idx.dtype} values")
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("information indices must not repeat")
    if idx[0] < 0 or idx[-1] >= family.block_length:
        raise ValueError("information index out of range")
    return float(family.error_probs()[idx].sum())
