"""Polar encoder and successive-cancellation decoders.

The generator matrix is the n-th Kronecker power of [[1,0],[1,1]] with rows
in natural order (no bit-reversal).  For bit index i with binary expansion
b1..bn (b1 most significant), the decision statistic is produced by a depth-n
computation tree whose level j applies a check combine when bj = 0 and a
variable combine when bj = 1; level 1 acts directly on the channel LLRs.

Three decoders share that control flow and differ only in the message
alphabet, which fixes the node algebra:

* ``sc_decode``          exact LLR arithmetic (tanh rule), saturating infinities
* ``quantized_sc_decode`` every node output passed through a uniform quantizer
* ``erasure_sc_decode``   the three-symbol algebra on {-inf, 0, +inf}

All three run ``_sc_batch``, which takes raw channel LLRs and maps them onto
the decoder's alphabet itself.  The quantized decoder runs on int32 level
indices j (the level j*delta): its variable node is a saturating integer
add, and its check node a lookup in ``_check_index_table``, the cached table
density evolution's check step also uses, so decoder and DE share one
quantized node map.  Above ``_CHECK_TABLE_MAX_LEVELS`` levels no table is
built and the check index is computed per pair.

``_sc_batch`` runs node-major: messages are (N, trials) arrays, so the two
halves of every node are contiguous row blocks, and a node op over more
than ``_TILE`` messages runs in row tiles whose temporaries stay in cache.
Its outputs are transposed back to (trials, N).

A caller that discards the roots outside genie mode (``sim``'s block-error
runs) has ``_sc_batch`` skip every subtree whose indices are all frozen, as
in simplified SC (Alamdar-Yazdi and Kschischang, 2011).  That is exact: a
frozen decision is 0 whatever its statistic, so such a subtree's decisions
and partial sums are zeros without evaluating it, and the tie coins are
drawn up front, so skipping consumes no randomness.  Genie mode and the
single-word decoders evaluate every node and return every root.

A decoder draws one fair tie-break coin per bit index up front, so two
decoders fed the same generator state consume identical randomness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import INF
from .quantizer import QuantizerSpec, levels, quantize_index
from .quantizer import quantize as quantize  # traced by perfbench

# largest alphabet whose check nodes the quantized decoder looks up in
# ``_check_index_table``: 4097^2 int32 entries are 67 MB, |Q| = 60,001 would
# need 14 GB
_CHECK_TABLE_MAX_LEVELS = 4097

# messages per node-op call in ``_sc_batch``: larger nodes run in row tiles,
# so the six float64 temporaries of an exact check (1.5 MiB) stay in a 2 MiB
# L2.  Measured on 4096-trial chunks, 2^14 was 4% faster on one thread and
# 15% slower on two, where each tile's calls contend for the GIL.
_TILE = 1 << 15


@dataclass(frozen=True)
class PolarCode:
    """Block exponent ``n`` (N = 2**n) plus the information index set; frozen bits are 0.

    Indices must be Python or numpy integers: a float or a bool is refused
    rather than truncated, which could merge two indices into one.
    """

    n: int
    info_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"block exponent must be nonnegative, got {self.n}")
        given = tuple(self.info_set)
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in given):
            raise ValueError("information indices must be integers")
        info = frozenset(int(i) for i in given)
        if any(i < 0 or i >= self.block_length for i in info):
            raise ValueError("information index out of range")
        object.__setattr__(self, "info_set", info)

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def rate(self) -> float:
        return len(self.info_set) / self.block_length

    def info_indices(self) -> np.ndarray:
        return np.array(sorted(self.info_set), dtype=np.int64)

    def info_mask(self) -> np.ndarray:
        mask = np.zeros(self.block_length, dtype=bool)
        if self.info_set:
            mask[self.info_indices()] = True
        return mask


def index_to_path(i: int, n: int) -> tuple[int, ...]:
    """Binary expansion b1..bn of ``i``, most significant bit first."""
    if not (0 <= i < (1 << n)):
        raise ValueError(f"index {i} out of range for n={n}")
    return tuple((i >> (n - 1 - j)) & 1 for j in range(n))


def encode(u, n: int | None = None) -> np.ndarray:
    """Multiply ``u`` by the polar generator matrix over GF(2).

    Accepts a batch in the leading axes; the codeword axis is the last one.
    The butterfly recursion applies the 2x2 kernel along every bit axis,
    which is an O(N log N) evaluation of u @ G.
    """
    x = np.array(u, dtype=np.uint8, order="C") & 1
    size = x.shape[-1]
    if n is None:
        n = int(size).bit_length() - 1
    if size != (1 << n):
        raise ValueError(f"input length {size} is not 2**{n}")
    # x is a fresh C-contiguous array, so each reshape is a view of it and
    # the in-place XOR of every block's second half into its first updates x
    half = 1
    while half < size:
        pairs = x.reshape(*x.shape[:-1], size // (2 * half), 2, half)
        pairs[..., 0, :] ^= pairs[..., 1, :]
        half *= 2
    return x


# ---------------------------------------------------------------------------
# node algebras


def check_llrs(a, b):
    """Exact check combine 2*atanh(tanh(a/2)*tanh(b/2)), batched and safe.

    The magnitude is that tanh form where min(|a|,|b|) < 1 and both inputs are
    finite, else min(|a|,|b|) + log1p(exp(-(|a|+|b|))) - log1p(exp(-||a|-|b||)),
    the same function without overflow, whose NaN for two infinite inputs is
    inf.  The log form cancels to rounding noise at small inputs; the tanh form
    does not.  Zero absorbs; an infinite input returns the other one exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    shape = np.broadcast(a, b).shape
    lo = np.minimum(abs_a, abs_b, out=np.empty(shape))
    tanh_form = lo < 1.0
    tanh_form &= np.maximum(abs_a, abs_b) < INF
    # each step writes into mag, other or lo, so at most six input-sized
    # arrays are live at once: per tile in the decoder, and per call on a
    # check table's quadrant (|Q| = 2001 is 1M pairs)
    # invalid and divide: both inputs infinite.  over: |a| + |b| past the
    # float maximum rounds to inf, the correctly rounded sum, and exp(-inf)
    # = 0 is then the correctly rounded exp(-(|a| + |b|))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mag = np.add(abs_a, abs_b, out=np.empty(shape))
        np.log1p(np.exp(np.negative(mag, out=mag), out=mag), out=mag)
        other = np.subtract(abs_a, abs_b, out=np.empty(shape))
        np.abs(other, out=other)
        np.log1p(np.exp(np.negative(other, out=other), out=other), out=other)
        mag -= other
        mag += lo
        np.putmask(mag, np.isnan(mag), INF)
        np.tanh(np.divide(abs_a, 2.0, out=other), out=other)
        other *= np.tanh(np.divide(abs_b, 2.0, out=lo), out=lo)
        np.arctanh(other, out=other)
        other *= 2.0
        # np.where, not putmask or copyto: the mask is random, and their branches mispredict
        mag = np.where(tanh_form, other, mag)
    out = np.sign(a, out=other)
    out *= np.sign(b, out=lo)
    out *= mag
    return out


@functools.lru_cache(maxsize=8)
def _check_index_table(spec: QuantizerSpec) -> np.ndarray:
    """Quantized-level index of the check combine for every level pair.

    Built on the quadrant of nonnegative levels and signed out from it: the
    combine's magnitude depends only on the input magnitudes, its sign is
    the product of the input signs, the levels negate exactly about the
    middle index k and ``quantize_index`` is antisymmetric about it, so
    table[i, j] = k + s_i s_j T[|i - k|, |j - k|] with s_i = sign(i - k)
    and T the table on the quadrant, less k.  That is a quarter of the
    combine's work and memory.
    """
    k = spec.half_levels
    mags = levels(spec)[k:]
    quadrant = quantize_index(spec, check_llrs(mags[:, None], mags[None, :])).astype(np.int32)
    quadrant -= k
    offset = np.arange(-k, k + 1)
    table = quadrant[np.ix_(np.abs(offset), np.abs(offset))]
    sign = np.sign(offset).astype(np.int8)
    table *= np.outer(sign, sign)
    table += k
    return table


def var_llrs(a, b, flip):
    """Variable combine b + (-1)**flip * a with inf + (-inf) = 0."""
    out = np.where(flip, -np.asarray(a, dtype=float), a)
    # opposite infinities cancel to 0; a finite sum past the float maximum
    # rounds to inf, which is the correctly rounded result
    with np.errstate(invalid="ignore", over="ignore"):
        np.add(b, out, out=out)
    np.putmask(out, np.isnan(out), 0.0)
    return out


def _check_signs(a, b):
    return a * b


def _var_signs(a, b, flip):
    s = np.where(flip, -a, a)
    s += b
    return np.sign(s, out=s)


def _index_check(spec: QuantizerSpec):
    """Check node on level indices j in [-k, k], k = ``spec.half_levels``.

    Up to ``_CHECK_TABLE_MAX_LEVELS`` levels a flat ``take`` from the cached
    ``_check_index_table`` (twice as fast as indexing by two arrays); above,
    the quantized combine of the two levels j*delta, the same index.
    """
    k = spec.half_levels
    if spec.n_levels > _CHECK_TABLE_MAX_LEVELS:
        return lambda a, b: (quantize_index(spec, check_llrs(a * spec.delta, b * spec.delta))
                             - k).astype(np.int32)
    table = _check_index_table(spec)
    q = spec.n_levels

    def check(a, b):
        index = a * q
        index += b
        index += k * q + k
        out = table.take(index)
        out -= k
        return out

    return check


def _var_indices(a, b, flip, k: int):
    """Variable node on level indices: b + (-1)**flip * a, saturated at +-k.

    Levels are multiples of delta, so this is exactly the quantized float
    combine.  a - 2*flip*a ran four times faster than ``np.where``.
    """
    out = a * flip
    out *= -2
    out += a
    out += b
    return np.clip(out, -k, k, out=out)


# ---------------------------------------------------------------------------
# batched successive cancellation


def _transposed(x):
    """C-contiguous copy of the transpose of the 2-D array ``x``.

    Copied in 64 x 64 blocks, which stay in cache: three to five times
    faster than one strided copy at 1024 x 4096.
    """
    out = np.empty(x.shape[::-1], dtype=x.dtype)
    for i in range(0, x.shape[1], 64):
        for j in range(0, x.shape[0], 64):
            out[i:i + 64, j:j + 64] = x[j:j + 64, i:i + 64].T
    return out


def _sc_batch(llrs, code: PolarCode, tie_bits, *, spec: QuantizerSpec | None = None,
              signs: bool = False, genie: bool = False, discard_roots: bool = False):
    """Run SC decoding on a (trials, N) batch of raw channel LLRs.

    The inputs are mapped onto the decoder's alphabet first: ``signs=True``
    takes their signs as int8 (the three-symbol algebra), a ``spec``
    quantizes them and every node output, and exact SC uses them as given.
    Inputs already on the alphabet map to themselves.  Under a ``spec`` the
    messages are level indices (``_index_check``, ``_var_indices``) and the
    roots come back as the float64 levels j*delta.

    The recursion runs node-major: the mapped inputs and the tie coins are
    transposed once to (N, trials), so every node's halves are contiguous
    row blocks.  A node op over more than ``_TILE`` messages runs a tile of
    rows at a time, which keeps its temporaries in cache.

    With ``discard_roots`` the roots come back as None and, outside genie
    mode, a subtree whose indices are all frozen is not evaluated: its
    decisions and partial sums are zeros whatever its messages, so the check
    op that would feed a frozen left half is skipped and its right sibling's
    var op flips by the zero rows.  The test is O(1) per node, on a prefix
    count of the information indices.

    Returns C-contiguous (trials, N) arrays (u_hat, roots, errors): hard
    decisions, root decision statistics and, in genie mode, the per-index
    would-be-error indicators under the all-zero transmission with prior
    decisions forced correct.
    """
    llrs = np.asarray(llrs)
    batch, size = llrs.shape
    if size != code.block_length:
        raise ValueError(f"expected {code.block_length} channel values, got {size}")
    if tie_bits.shape != (batch, size):
        raise ValueError("tie_bits must match the LLR batch shape")

    if signs:
        llrs = np.sign(llrs).astype(np.int8)
        fcheck, fvar = _check_signs, _var_signs
    elif spec is not None:
        k = spec.half_levels
        llrs = (quantize_index(spec, llrs) - k).astype(np.int32)
        fcheck = _index_check(spec)
        fvar = lambda a, b, flip: _var_indices(a, b, flip, k)
    else:
        fcheck, fvar = check_llrs, var_llrs

    llrs = _transposed(llrs)
    ties = _transposed(tie_bits)
    info_mask = code.info_mask()
    u_hat = np.zeros((size, batch), dtype=np.uint8)
    roots = None if discard_roots else np.empty((size, batch), dtype=llrs.dtype)
    errors = np.zeros((size, batch), dtype=bool) if genie else None
    skip = discard_roots and not genie
    # info_before[i] is the number of information indices below i
    info_before = np.concatenate([[0], np.cumsum(info_mask)]).tolist()
    rows = max(1, _TILE // max(batch, 1))  # per tile

    def node(op, a, *rest):
        # every node op keeps the message dtype, so the tiles fill a copy of a
        if len(a) <= rows:
            return op(a, *rest)
        out = np.empty_like(a)
        for start in range(0, len(a), rows):
            tile = slice(start, start + rows)
            out[tile] = op(a[tile], *(x[tile] for x in rest))
        return out

    def frozen(base, length):
        # the rows of u_hat stay 0 there, and serve as the subtree's partial sums
        return skip and info_before[base + length] == info_before[base]

    def descend(block, base):
        if len(block) == 1:
            stat = block[0]
            if roots is not None:
                roots[base] = stat
            hard = (stat < 0) | ((stat == 0) & (ties[base] == 1))
            if genie:
                errors[base] = hard  # u_hat stays 0: prior decisions forced correct
            elif info_mask[base]:
                u_hat[base] = hard
            return u_hat[base:base + 1]
        half = len(block) // 2
        a = block[:half]
        b = block[half:]
        x_left = (u_hat[base:base + half] if frozen(base, half)
                  else descend(node(fcheck, a, b), base))
        # decisions are 0 or 1, so their bytes read as bool without a copy
        x_right = (u_hat[base + half:base + 2 * half] if frozen(base + half, half)
                   else descend(node(fvar, a, b, x_left.view(bool)), base + half))
        return np.concatenate([x_left ^ x_right, x_right])

    if not frozen(0, size):
        descend(llrs, 0)
    u_hat = _transposed(u_hat)
    errors = None if errors is None else _transposed(errors)
    if roots is not None:
        roots = _transposed(roots)
        if spec is not None and not signs:
            roots = roots * spec.delta
    return u_hat, roots, errors


def _decode_word(word, code: PolarCode, rng: np.random.Generator, **decoder):
    """(u_hat, roots) of one word, its tie-break coins drawn from ``rng`` first.

    A NaN channel value is refused; +-inf is a certain bit.
    """
    llrs = np.asarray(word, dtype=float).reshape(1, -1)
    if np.isnan(llrs).any():
        raise ValueError("channel values must not be NaN")
    tie = rng.integers(0, 2, size=llrs.shape, dtype=np.uint8)
    u_hat, roots, _ = _sc_batch(llrs, code, tie, **decoder)
    return u_hat[0], roots[0]


def sc_decode(llrs, code: PolarCode, rng: np.random.Generator):
    """Exact successive-cancellation decoding of one word.

    Frozen indices are forced to 0; information indices take the sign of the
    root statistic, an exact zero being resolved by a fair coin from ``rng``.
    Returns the decision vector and the per-index root statistics.
    """
    return _decode_word(llrs, code, rng)


def quantized_sc_decode(llrs, code: PolarCode, spec: QuantizerSpec,
                        rng: np.random.Generator):
    """SC decoding with every computation output quantized by ``spec``.

    Raw channel LLRs are quantized on entry, so pre-quantized input passes
    through unchanged.
    """
    return _decode_word(llrs, code, rng, spec=spec)


def erasure_sc_decode(signs, code: PolarCode, rng: np.random.Generator):
    """SC decoding over the three-symbol algebra {-inf, 0, +inf}.

    Check nodes multiply signs (0 absorbs), variable nodes use saturating
    addition where opposite infinities cancel.  Inputs must already be
    sign-quantized.
    """
    signs = np.asarray(signs, dtype=float)
    if not np.all((signs == 0.0) | (signs == INF) | (signs == -INF)):
        raise ValueError("erasure decoder inputs must lie in {-inf, 0, +inf}")
    return _decode_word(signs, code, rng, signs=True)[0]
