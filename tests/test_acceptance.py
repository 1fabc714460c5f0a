"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion before asserting, so a
full run documents the outcome of every criterion even when one fails.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

import polarq.cli as cli
from polarq.bounds import bounds_series, curve
from polarq.channels import BEC, BSC, TripleDensity
from polarq.codec import PolarCode, _sc_batch
from polarq.density_evolution import (
    _double_level,
    gallager_trajectory,
    rate_for_union_bound,
    synthesize,
    synthesize_triples,
)
from polarq.quantizer import QuantizerSpec, quantize_density, sign_quantize
from polarq.sim import _trial_stream, genie_bit_errors


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_bsc_bound_series_golden():
    published = {
        0: (-0.361, 0.500),
        1: (-0.191, 0.500),
        2: (-0.075, 0.498),
        10: (0.264, 0.474),
        20: (0.398, 0.465),
    }
    start = time.time()
    series = bounds_series(BSC(0.11).triple(), 20)
    elapsed = time.time() - start
    # the published table prints three-decimal truncations (L_0 = -0.361559
    # is closed-form arithmetic and appears as -0.361), so each computed
    # value, truncated toward zero, must equal the printed one
    bad = []
    for n, (lo, up) in published.items():
        for name, value, printed in (("L", series.lower[n], lo), ("U", series.upper[n], up)):
            if math.trunc(value * 1000) != round(printed * 1000):
                bad.append(f"{name}_{n}: computed {value:.6f} vs published {printed}")
    ok = not bad and elapsed < 10.0
    report("criterion 1 (golden bound series, BSC 0.11)", ok,
           f"{elapsed:.1f}s; deviations: {bad if bad else 'none'}")
    assert elapsed < 10.0
    assert not bad, "; ".join(bad)


def test_criterion_2_bec_exactness():
    worst = 0.0
    for eps in (0.1, 0.3, 0.5, 0.9):
        series = bounds_series(BEC(eps).triple(), 20)
        worst = max(worst,
                    np.abs(series.lower - (1 - eps)).max(),
                    np.abs(series.upper - (1 - eps)).max())
    ok = worst < 1e-10
    report("criterion 2 (BEC bounds are the capacity)", ok, f"max deviation {worst:.3g}")
    assert ok


def test_criterion_3_martingale_step_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    rand = rng.random((100000, 3))
    rand /= rand.sum(axis=1, keepdims=True)
    ticks = np.arange(0.0, 1.0 + 0.005, 0.01)
    pg, eg = np.meshgrid(ticks, ticks, indexing="ij")
    keep = pg + eg <= 1.0 + 1e-12
    grid = np.stack([pg[keep], eg[keep], np.maximum(1 - pg[keep] - eg[keep], 0)], axis=1)
    triples = np.concatenate([rand, grid])
    p, e, m = triples.T

    from polarq.bounds import _lower_functional_arrays
    from polarq.channels import (
        _bhattacharyya_arrays,
        _error_rate_arrays,
        _mutual_info_arrays,
    )

    children = _double_level(p, e, m)  # minus block, then plus block
    pm, em, mm = (x[:p.size] for x in children)
    pp, ep, mp = (x[p.size:] for x in children)
    checks = {
        "mass conservation": max(np.abs(pp + ep + mp - 1).max(),
                                 np.abs(pm + em + mm - 1).max()),
        "I supermartingale": np.max((_mutual_info_arrays(pp, ep, mp)
                                     + _mutual_info_arrays(pm, em, mm)) / 2
                                    - _mutual_info_arrays(p, e, m)),
        "F submartingale": np.max(_lower_functional_arrays(p, e, m)
                                  - (_lower_functional_arrays(pp, ep, mp)
                                     + _lower_functional_arrays(pm, em, mm)) / 2),
        # E = m + e/2 is not a martingale (BSC(q): E(+) = q, E(-) = 2q(1-q)).
        # With e- = 1 - (1-e)^2 and e+ = e^2 + 2pm,
        #   E(D-) = 2pm + e - e^2/2,   E(D+) = m^2 + 2em + e^2/2 + pm,
        # so (E(D+) + E(D-))/2 - E(D) = (m^2 + 2em + 3pm - 2m)/2, and
        # 2m = 2m(p + e + m) turns this into m(p - m)/2: zero on the BEC
        # face m = 0, where E is preserved.
        "E drift = m(p-m)/2": np.max(np.abs((_error_rate_arrays(pp, ep, mp)
                                             + _error_rate_arrays(pm, em, mm)) / 2
                                            - _error_rate_arrays(p, e, m)
                                            - m * (p - m) / 2)),
        "Z minus": np.max(_bhattacharyya_arrays(pm, em, mm)
                          - 2 * _bhattacharyya_arrays(p, e, m)),
        "Z plus": np.max(_bhattacharyya_arrays(pp, ep, mp)
                         - 2 * _bhattacharyya_arrays(p, e, m) ** 1.5),
    }
    elapsed = time.time() - start
    bad = {k: v for k, v in checks.items() if v > 1e-12}
    ok = not bad and elapsed < 30.0
    report("criterion 3 (martingale step properties)", ok,
           f"{elapsed:.1f}s on {triples.shape[0]} triples; "
           f"violations: {({k: float(v) for k, v in bad.items()}) if bad else 'none'}")
    assert elapsed < 30.0
    assert not bad, f"violations beyond 1e-12 slack: {bad}"


def _binomial_rejections(counts, trials, pred, level):
    """Indices whose error count rejects Binomial(trials, pred).

    Each index gets a two-sided exact binomial test, Bonferroni-adjusted over
    the tested indices for family-wise level ``level``; an index with pred
    0 or 1 has a determined count and is rejected unless it matches exactly.
    The normal approximation is not used: at pred ~ 1e-6 a single observed
    error already scores z ~ 3.5 while its exact p-value is unremarkable.
    """
    degenerate = (pred == 0.0) | (pred == 1.0)
    rejected = [int(j) for j in np.flatnonzero(degenerate)
                if counts[j] != pred[j] * trials]
    tested = np.flatnonzero(~degenerate)
    pvalues = np.array([stats.binomtest(int(counts[j]), trials, float(pred[j])).pvalue
                        for j in tested])
    adjusted = np.minimum(pvalues * tested.size, 1.0)
    rejected += [int(j) for j in tested[adjusted < level]]
    return sorted(rejected), float(adjusted.min(initial=1.0))


def test_criterion_4_de_simulation_cross_validation():
    # trials are independent (one stream per trial), so each index's genie
    # error count is exactly Binomial(trials, DE error probability)
    n, trials, seed, level = 8, 100000, 0, 1e-3
    start = time.time()
    ch = BSC(0.11)
    code = PolarCode(n=n, info_set=frozenset())
    rep = genie_bit_errors(code, ch, "erasure", trials, seed=seed)
    elapsed = time.time() - start
    counts = rep.per_index_errors
    pred = synthesize_triples(ch.triple(), n).error_probs()
    rejected, min_adj = _binomial_rejections(counts, trials, pred, level)
    # power: the same counts must reject the prediction for a nearby channel
    wrong = synthesize_triples(BSC(0.112).triple(), n).error_probs()
    rejected_wrong, _ = _binomial_rejections(counts, trials, wrong, level)
    ok = not rejected and bool(rejected_wrong) and elapsed < 120.0
    report("criterion 4 (genie rates match density evolution)", ok,
           f"{elapsed:.1f}s; {len(rejected)} indices rejected at family-wise level "
           f"{level:g} (min adjusted p {min_adj:.3g}); BSC(0.112) prediction "
           f"rejected at {len(rejected_wrong)} indices")
    assert elapsed < 120.0
    assert not rejected, f"indices {rejected} reject the DE prediction (min adjusted p {min_adj:.3g})"
    assert rejected_wrong, "the test cannot tell BSC(0.11) counts from the BSC(0.112) prediction"


def test_criterion_5_bec_decoder_equivalence():
    n, size, trials, seed = 10, 1024, 10000, 7
    ch = BEC(0.5)
    code = PolarCode(n=n, info_set=frozenset(range(512, 1024)))
    mismatches = 0
    for start in range(0, trials, 2000):
        batch = min(2000, trials - start)
        llrs = np.empty((batch, size))
        ties = np.empty((batch, size), dtype=np.uint8)
        for row, t in enumerate(range(start, start + batch)):
            rng = _trial_stream(seed, t)
            llrs[row] = ch.sample_llr(rng, size=size)
            ties[row] = rng.integers(0, 2, size=size, dtype=np.uint8)
        exact, _, _ = _sc_batch(llrs, code, ties)
        signs = np.sign(sign_quantize(llrs)).astype(np.int8)
        eras, _, _ = _sc_batch(signs, code, ties, signs=True)
        mismatches += int(np.sum(np.any(exact != eras, axis=1)))
    ok = mismatches == 0
    report("criterion 5 (erasure decoder = exact SC on the BEC)", ok,
           f"{trials} shared-seed trials, {mismatches} differing decision vectors")
    assert ok


def test_criterion_6_figure_curves():
    start = time.time()
    points, n = 50, 20
    fams = {f: np.array(curve(f, points, n)) for f in ("bec", "bsc", "bawgn", "universal")}
    elapsed = time.time() - start
    caps = fams["bec"][:, 0]

    bec_identity = max(np.abs(fams["bec"][:, 1] - caps).max(),
                       np.abs(fams["bec"][:, 2] - caps).max()) < 1e-9
    below_bec = all(np.all(fams[f][:, 2] <= caps + 1e-9) for f in ("bsc", "bawgn"))
    uni_lowest = all(np.all(fams["universal"][:, 1] <= fams[f][:, 1] + 1e-12)
                     and np.all(fams["universal"][:, 2] <= fams[f][:, 2] + 1e-12)
                     for f in ("bsc", "bawgn"))
    high_cap = all(fams[f][-1, 1] > 0.9 for f in fams)
    widths = {f: float(np.max(fams[f][:, 2] - fams[f][:, 1]))
              for f in ("bsc", "bawgn", "universal")}
    widths_ok = all(w <= 0.07 for w in widths.values())

    ok = bec_identity and below_bec and uni_lowest and high_cap and widths_ok and elapsed < 600
    report("criterion 6 (achievable-rate curves over families)", ok,
           f"{elapsed:.0f}s; bec identity {bec_identity}; below bec {below_bec}; "
           f"universal lowest {uni_lowest}; lower bounds at 0.99 > 0.9 {high_cap}; "
           f"max widths {widths}")
    assert elapsed < 600
    assert bec_identity and below_bec and uni_lowest and high_cap
    assert widths_ok, f"bracket widths exceed 0.07: {widths}"


def test_criterion_7_alphabet_size_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep-q", "--channel", "bsc:0.11", "--q-sizes", "3,5,9,17,33",
                   "--n", "10", "--target-sum", "1e-3", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    rates = [float(r[7]) for r in rows]

    ref_spec = QuantizerSpec(delta=16.0 / 2000.0, m_sat=8.0)
    ref_fam = synthesize(quantize_density(BSC(0.11).llr_density(), ref_spec), 10, ref_spec)
    ref_rate = rate_for_union_bound(ref_fam, 1e-3) / 1024

    monotone = all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    close = abs(rates[-1] - ref_rate) <= 0.02
    ok = monotone and close
    report("criterion 7 (rate vs alphabet size)", ok,
           f"rates {rates}; 2001-level reference {ref_rate:.4f}")
    assert monotone, f"rates not non-decreasing: {rates}"
    assert close, f"|Q|=33 rate {rates[-1]} vs reference {ref_rate}"


def test_criterion_8_single_bit_decoder_zero_threshold():
    rng = np.random.default_rng(99)
    qgrid = np.linspace(0.02, 0.5, 25)
    paths = [tuple(rng.integers(0, 2, size=16)) for _ in range(1000)]
    # states within one ulp of 1/2 are fixed points of the check map in
    # doubles; strict worsening is required everywhere below that
    saturated = np.nextafter(0.5, 0.0)
    violations = []
    for q0 in qgrid:
        for path in paths[:40] if q0 != qgrid[-1] else paths:
            traj = gallager_trajectory(q0, path)
            if np.any(np.diff(traj) < 0):
                violations.append(("improved", q0, path))
                continue
            for j, b in enumerate(path):
                if b == 0:
                    prev, nxt = traj[j], traj[j + 1]
                    if prev < saturated and not nxt > prev:
                        violations.append(("not strict", q0, path, j))
                    if prev >= saturated and nxt != prev:
                        violations.append(("left fixed point", q0, path, j))
    ok = not violations
    report("criterion 8 (single-bit decoder never improves)", ok,
           f"{len(qgrid)} start states x random length-16 paths; "
           f"violations: {violations[:3] if violations else 'none'}")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    code_file = tmp_path / "code.txt"
    assert cli.main(["construct", "--channel", "bsc:0.11", "--quantizer", "q:sign",
                     "--n", "8", "--rate", "0.25", "--out", str(code_file)]) == 0
    outputs = []
    for threads, name in ((1, "s1.csv"), (4, "s4.csv"), (1, "s1b.csv")):
        out = tmp_path / name
        assert cli.main(["simulate", "--code", str(code_file), "--channel", "bsc:0.11",
                         "--decoder", "erasure", "--trials", "20000", "--seed", "31",
                         "--threads", str(threads), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    sim_ok = outputs[0] == outputs[1] == outputs[2]

    bounds_files = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert cli.main(["bounds", "--channel", "bawgn:0.97869412", "--n", "12",
                         "--out", str(out)]) == 0
        bounds_files.append(out.read_bytes())
    bounds_ok = bounds_files[0] == bounds_files[1]

    ok = sim_ok and bounds_ok
    report("criterion 9 (byte-identical reruns, thread invariant)", ok,
           f"simulate identical {sim_ok}; bounds identical {bounds_ok}")
    assert ok
