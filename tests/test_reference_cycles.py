"""Public entry points must free their arrays on return, not leave them to the cyclic collector.

A recursive closure holds itself through its cell, so a call that keeps one
leaves a cycle, and with it every array the closure reaches, until
``gc.collect()`` runs.
"""

import gc

import numpy as np
import pytest

from polarq.bounds import bounds_series, curve
from polarq.channels import BSC
from polarq.codec import PolarCode, sc_decode
from polarq.quantizer import SIGN, QuantizerSpec
from polarq.sim import genie_bit_errors, simulate_block_error

CODE = PolarCode(n=6, info_set=frozenset(range(24, 64)))
SPEC = QuantizerSpec(delta=1.0, m_sat=8.0)

# curve on "bsc" and "bawgn" solves each capacity with scipy's brentq, whose
# own wrappers are cyclic; these two families solve no root
CALLS = {
    "simulate-exact": lambda: simulate_block_error(CODE, BSC(0.11), "exact", 64, 1),
    "simulate-quantized": lambda: simulate_block_error(CODE, BSC(0.11), SPEC, 64, 1),
    "simulate-erasure": lambda: simulate_block_error(CODE, BSC(0.11), SIGN, 64, 1),
    "genie": lambda: genie_bit_errors(CODE, BSC(0.11), SPEC, 64, 1),
    "sc_decode": lambda: sc_decode(np.linspace(-2.0, 2.0, 64), CODE, np.random.default_rng(0)),
    "bounds_series": lambda: bounds_series(BSC(0.11).triple(), 8),
    "curve-bec": lambda: curve("bec", 2, 8),
    "curve-universal": lambda: curve("universal", 1, 4, e_grid=3),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_second_call_leaves_no_cyclic_garbage(call):
    call()  # warm: first-call caches and imports are not garbage
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        gc.enable()
    assert gc.collect() == 0
