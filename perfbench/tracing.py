"""Spans around the calls into each layer of polarq, recorded from outside it.

The tracer swaps the module-level functions (and a few channel methods) that
form each layer boundary for timing wrappers, looked up by name, and puts the
originals back afterwards; the program itself is not edited.  A span is
[label, detail, start, end, parent]: ``parent`` is the index of the
innermost enclosing span and ``detail`` is the input shape (which gives the
tree level) or the decoder kind.

A target that no longer exists under its name is reported, and every
per-layer metric built on its label is reported as missing instead of 0.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np


def _shape(args, kwargs):
    return list(np.shape(args[0]))


def _decoder_kind(args, kwargs):
    if kwargs.get("signs"):
        return "erasure"
    return "quantized" if kwargs.get("spec") is not None else "exact"


# (label, module, attribute, detail); several targets may share a label
TARGETS = (
    ("cli.main", "polarq.cli", "main", None),
    ("sim.run_chunk", "polarq.sim", "_run_chunk", None),
    ("sim.trial_stream", "polarq.sim", "_trial_stream", None),
    ("channels.sample_llr", "polarq.channels", "BSC.sample_llr", None),
    ("quantizer.sign_quantize", "polarq.sim", "sign_quantize", None),
    ("quantizer.quantize", "polarq.sim", "quantize", None),
    ("quantizer.quantize", "polarq.codec", "quantize", None),
    ("sim.sc_batch", "polarq.sim", "_sc_batch", _decoder_kind),
    ("codec.check", "polarq.codec", "check_llrs", _shape),
    ("codec.var", "polarq.codec", "var_llrs", _shape),
    ("codec.sign_ops", "polarq.codec", "_check_signs", _shape),
    ("codec.sign_ops", "polarq.codec", "_var_signs", _shape),
    ("channels.llr_density", "polarq.channels", "BSC.llr_density", None),
    ("channels.llr_density", "polarq.channels", "BAWGN.llr_density", None),
    ("quantizer.quantize_density", "polarq.cli", "quantize_density", None),
    ("density_evolution.synthesize", "polarq.cli", "synthesize", None),
    ("density_evolution.synthesize_triples", "polarq.cli", "synthesize_triples", None),
    ("density_evolution.check_vec", "polarq.density_evolution", "_de_check_vec", _shape),
    ("density_evolution.var_vec", "polarq.density_evolution", "_de_var_vec", _shape),
    ("density_evolution.check_table", "polarq.density_evolution", "_check_index_table", None),
    ("bounds.curve", "polarq.bounds", "curve", None),
    ("bounds.root_solve", "polarq.bounds", "_bsc_for_capacity", None),
    ("bounds.root_solve", "polarq.bounds", "_bawgn_for_capacity", None),
    ("channels.capacity", "polarq.bounds", "binary_entropy", None),
    ("channels.capacity", "polarq.channels", "BAWGN.capacity", None),
    ("bounds.double_level", "polarq.bounds", "_double_level", _shape),
    ("bounds.functional", "polarq.bounds", "_lower_functional_arrays", None),
    ("bounds.functional", "polarq.bounds", "_mutual_info_arrays", None),
)


def _resolve(module_name, attribute):
    """(owner, name) of a dotted attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    return (owner, name) if name in vars(owner) else None


class Tracer:
    """Records spans while installed; ``spans`` grows for the whole run."""

    def __init__(self):
        self.targets = TARGETS
        self.spans = []
        self.missing = {}  # label -> "module:attribute" not found
        self._stack = []
        self._installed = []

    def install(self):
        for label, module_name, attribute, detail in self.targets:
            found = _resolve(module_name, attribute)
            if found is None:
                self.missing[label] = f"{module_name}:{attribute}"
                continue
            owner, name = found
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(original, label, detail))
            self._installed.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, fn, label, detail):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, None, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = start
                stack.pop()
                if detail is not None:
                    try:
                        span[1] = detail(args, kwargs)
                    except (IndexError, KeyError, TypeError):
                        span[1] = None

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round


def _nodes(detail):
    return int(np.prod(detail))


def _pairs(detail):
    return detail[0] * detail[1] ** 2


def _states(detail):
    return 2 * detail[0] * detail[1]


# name: (unit, aggregate, labels, detail filter or per-span count)
LAYER_METRICS = {
    "sim.trial_stream_s": ("s/round", "total", ("sim.trial_stream",), None),
    "sim.chunk_self_s": ("s/round", "self", ("sim.run_chunk",), None),
    "channels.sample_llr_s": ("s/round", "total", ("channels.sample_llr",), None),
    "quantizer.sign_quantize_s": ("s/round", "total", ("quantizer.sign_quantize",), None),
    "codec.check_s": ("s/round", "total", ("codec.check",), None),
    "codec.var_s": ("s/round", "total", ("codec.var",), None),
    "quantizer.quantize_s": ("s/round", "total", ("quantizer.quantize",), None),
    "codec.sign_ops_s": ("s/round", "total", ("codec.sign_ops",), None),
    "codec.descend_self_s": ("s/round", "self", ("sim.sc_batch",), None),
    "codec.sc_batch.exact_s": ("s/round", "total", ("sim.sc_batch",), "exact"),
    "codec.sc_batch.quantized_s": ("s/round", "total", ("sim.sc_batch",), "quantized"),
    "codec.sc_batch.erasure_s": ("s/round", "total", ("sim.sc_batch",), "erasure"),
    "codec.node_evals": ("count/round", "count",
                         ("codec.check", "codec.var", "codec.sign_ops"), _nodes),
    "sim.trials": ("count/round", "count", ("sim.trial_stream",), lambda detail: 1),
    "density_evolution.var_s": ("s/round", "total", ("density_evolution.var_vec",), None),
    "density_evolution.rows": ("count/round", "count", ("density_evolution.var_vec",),
                               lambda detail: detail[0]),
    "density_evolution.check_s": ("s/round", "self", ("density_evolution.check_vec",), None),
    "density_evolution.check_table_s": ("s/round", "total",
                                        ("density_evolution.check_table",), None),
    "density_evolution.pair_ops": ("count/round", "count", ("density_evolution.check_vec",),
                                   _pairs),
    "density_evolution.triples_s": ("s/round", "total",
                                    ("density_evolution.synthesize_triples",), None),
    "quantizer.quantize_density_s": ("s/round", "total", ("quantizer.quantize_density",), None),
    "channels.llr_density_s": ("s/round", "total", ("channels.llr_density",), None),
    "bounds.double_level_s": ("s/round", "total", ("bounds.double_level",), None),
    "bounds.functional_s": ("s/round", "total", ("bounds.functional",), None),
    "bounds.root_solve_s": ("s/round", "total", ("bounds.root_solve",), None),
    "channels.capacity_s": ("s/round", "total", ("channels.capacity",), None),
    "bounds.states": ("count/round", "count", ("bounds.double_level",), _states),
    "cli.self_s": ("s/round", "self", ("cli.main",), None),
}


def round_metrics(spans, lo: int, hi: int) -> dict:
    """Per-layer values of the spans lo..hi-1 (one round)."""
    child_time = defaultdict(float)
    for label, detail, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child_time[parent] += end - start
    totals = defaultdict(float)
    selfs = defaultdict(float)
    by_kind = defaultdict(float)
    details = defaultdict(list)
    for index in range(lo, hi):
        label, detail, start, end, _ = spans[index]
        totals[label] += end - start
        selfs[label] += end - start - child_time[index]
        if isinstance(detail, str):
            by_kind[label, detail] += end - start
        details[label].append(detail)
    values = {}
    for name, (_, aggregate, labels, extra) in LAYER_METRICS.items():
        if aggregate == "count":
            try:
                values[name] = sum(extra(d) for label in labels for d in details[label])
            except (IndexError, TypeError):
                values[name] = None  # the detail no longer has the expected shape
        elif aggregate == "self":
            values[name] = sum(selfs[label] for label in labels)
        elif extra is not None:
            values[name] = sum(by_kind[label, extra] for label in labels)
        else:
            values[name] = sum(totals[label] for label in labels)
    return values


def layer_report(tracer: Tracer, rounds, overhead_pct: float):
    """(metrics, missing) over the traced rounds, each value a median per round.

    ``rounds`` lists (lo, hi) span ranges.  A metric is missing when one of
    its labels could not be wrapped or its detail could not be read.
    """
    per_round = [round_metrics(tracer.spans, lo, hi) for lo, hi in rounds]
    metrics, missing = {}, {}
    for name, (unit, _, labels, _) in LAYER_METRICS.items():
        gone = [tracer.missing[label] for label in labels if label in tracer.missing]
        values = [r[name] for r in per_round]
        if gone or any(v is None for v in values):
            missing[name] = ", ".join(gone) or "span detail unreadable"
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics, missing


def level_table(spans, rounds) -> dict:
    """Seconds and calls per (label, input shape) over the traced rounds.

    The input shape of a node op, a DE step or a doubling gives its tree
    level, so this is the per-level breakdown of the decoder, DE and bounds.
    """
    table = defaultdict(lambda: [0, 0.0])
    for lo, hi in rounds:
        for label, detail, start, end, _ in spans[lo:hi]:
            if isinstance(detail, list):
                entry = table[f"{label} {'x'.join(map(str, detail))}"]
                entry[0] += 1
                entry[1] += end - start
    return {key: {"calls": calls, "seconds": seconds}
            for key, (calls, seconds) in sorted(table.items())}
