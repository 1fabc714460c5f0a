"""Power tests for the benchmark's correctness checks, and the tracer's reports.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, stats

import checks
import parts
import run
import tracing
from polarq import (BAWGN, BSC, QuantizerSpec, bounds, genie_bit_errors, quantize_density,
                    synthesize, synthesize_triples)
from polarq.codec import PolarCode

BENCH = Path(run.__file__).resolve().parent


def _bsc_for(capacity):
    return optimize.brentq(lambda e: checks.bsc_capacity(e) - capacity, 1e-12, 0.5)


# ---------------------------------------------------------------------------
# binomial check


def test_pvalues_match_scipy_binomtest():
    counts = [0, 3, 17, 50, 99, 100]
    probs = [0.01, 0.02, 0.2, 0.5, 0.97, 1.0]
    got = checks.binomial_pvalues(counts, 100, probs)
    want = [stats.binomtest(k, 100, p).pvalue for k, p in zip(counts, probs)]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


def test_exact_decoder_references():
    eps, size = 0.11, 6
    flips = stats.binom.pmf(np.arange(size + 1), size, eps)
    parity = flips[1::2].sum()
    majority = flips[4:].sum() + 0.5 * flips[3]
    assert checks.all_check_error(eps, size) == pytest.approx(parity, rel=1e-12)
    assert checks.all_var_error(eps, size) == pytest.approx(majority, rel=1e-12)


def _genie_counts(n, eps, trials, seed):
    code = PolarCode(n=n, info_set=frozenset(range(1 << n)))
    return genie_bit_errors(code, BSC(eps), "erasure", trials, seed).per_index_errors


def _erasure_law(n, eps):
    data = synthesize_triples(BSC(eps).triple(), n).data
    return data[:, 2] + 0.5 * data[:, 1]


def test_binomial_check_rejects_bsc_0112_prediction():
    # n = 8 and 100,000 trials: the counts of the acceptance suite's DE check
    counts = _genie_counts(8, 0.11, 100_000, seed=0)
    ok, _, _ = checks.binomial_check(counts, 100_000, _erasure_law(8, 0.11))
    assert ok
    ok, rejected, _ = checks.binomial_check(counts, 100_000, _erasure_law(8, 0.112))
    assert not ok and rejected >= 10


def test_binomial_check_at_benchmark_size_rejects_a_coarser_neighbour():
    main = parts.build("decode")[0]
    counts = _genie_counts(main.n, 0.11, main.trials, seed=1)
    assert checks.binomial_check(counts, main.trials, _erasure_law(main.n, 0.11))[0]
    assert not checks.binomial_check(counts, main.trials, _erasure_law(main.n, 0.12))[0]


# ---------------------------------------------------------------------------
# data-processing check


def _quantized_family(sigma, q, n):
    spec = QuantizerSpec(delta=2.0 * parts.M_SAT / (q - 1), m_sat=parts.M_SAT)
    d0 = quantize_density(BAWGN(sigma).llr_density(grid=4001, span=40.0), spec)
    return synthesize(d0, n, spec).data, np.asarray(d0.probs)


def test_data_processing_check_rejects_a_more_informative_family():
    sigma = parts.BAWGN_SIGMA_HALF
    capacity = checks.bawgn_capacity(sigma)
    rows, level0 = _quantized_family(sigma, 17, 6)
    mean_info = checks.symmetric_information(rows).mean()
    level0_info = checks.symmetric_information(level0)
    assert checks.data_processing_check(mean_info, level0_info, capacity)

    better = checks.bawgn_sigma(0.55)
    rows, better_level0 = _quantized_family(better, 17, 6)
    richer = checks.symmetric_information(rows).mean()
    assert richer > level0_info
    assert not checks.data_processing_check(richer, level0_info, capacity)
    # and a level-0 law above the channel's capacity is refused too
    assert not checks.data_processing_check(
        richer, checks.symmetric_information(better_level0), capacity)


def test_symmetric_information_matches_closed_forms():
    eps = 0.11
    assert checks.symmetric_information([eps, 1 - eps]) == pytest.approx(
        checks.bsc_capacity(eps), rel=1e-12)
    assert checks.triple_information(0.7, 0.3, 0.0) == pytest.approx(0.7, rel=1e-12)


def test_mass_failures_use_llr_density_tolerance():
    rows = np.array([[0.5, 0.5], [0.5, 0.5 + 2e-12], [0.5, 0.5 + 5e-13], [1.0 + 1e-15, -1e-15]])
    assert checks.mass_failures(rows) == 1


# ---------------------------------------------------------------------------
# sampled-path bound check


def test_bound_check_rejects_a_neighbouring_channel():
    main = parts.build("curve")[0]
    n, samples = main.n, main.mc_samples
    (_, _, upper), = bounds.curve("bsc", 1, n, cap_min=0.5, cap_max=0.5)
    for capacity, expected in ((0.5, True), (0.51, False), (0.49, False)):
        eps = _bsc_for(capacity)
        means, errors = checks.sampled_upper([(1 - eps, 0.0, eps)], n, samples, seed=5)
        assert checks.upper_check(upper, means, errors) is expected, capacity


def test_universal_bound_check_takes_the_least_member():
    triples = checks.universal_triples(0.5, parts.E_GRID)
    n = 12
    _, upper = bounds._universal_bracket(0.5, parts.E_GRID, n)
    means, errors = checks.sampled_upper(triples, n, 1 << 15, seed=3)
    assert checks.upper_check(upper, means, errors)
    assert not checks.upper_check(upper + 0.02, means, errors)


# ---------------------------------------------------------------------------
# tracing


def test_renamed_function_is_reported_missing_without_failing_the_workload(
        monkeypatch, capsys):
    renamed = tuple((label, module, "_trial_stream_renamed" if attr == "_trial_stream" else attr,
                     detail) for label, module, attr, detail in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", renamed)
    assert run.main(["--workload", "decode", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert "sim.trial_stream_s" not in metrics and "sim.trials" not in metrics
    assert "per-layer metric sim.trial_stream_s missing: polarq.sim:_trial_stream_renamed" in out
    present = set(tracing.LAYER_METRICS) - {"sim.trial_stream_s", "sim.trials"}
    assert present <= set(metrics)
    assert metrics["codec.node_evals"]["value"] > 0


def test_tracer_restores_the_program():
    from polarq import codec, sim

    originals = (sim._trial_stream, codec.check_llrs, BSC.sample_llr)
    tracer = tracing.Tracer()
    tracer.install()
    assert sim._trial_stream is not originals[0]
    tracer.uninstall()
    assert (sim._trial_stream, codec.check_llrs, BSC.sample_llr) == originals
    assert not tracer.missing


def test_self_time_excludes_children():
    spans = [["cli.main", None, 0.0, 10.0, -1], ["sim.run_chunk", None, 1.0, 7.0, 0],
             ["sim.trial_stream", None, 2.0, 3.0, 1], ["sim.sc_batch", "exact", 3.0, 6.0, 1]]
    values = tracing.round_metrics(spans, 0, len(spans))
    assert values["cli.self_s"] == pytest.approx(4.0)
    assert values["sim.chunk_self_s"] == pytest.approx(2.0)
    assert values["codec.sc_batch.exact_s"] == pytest.approx(3.0)
    assert values["sim.trials"] == 1


# ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "decode",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
