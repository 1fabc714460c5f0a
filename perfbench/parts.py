"""The three computations the benchmark times, each a part of a round.

A part constructs its inputs (``setup``), runs its timed CLI commands
through ``polarq.cli.main`` (``run``, a generator that yields after each
command so that the runner can spread the small parts' commands between the
main part's; ``repeats`` runs a round), reports the median of each of its
end-to-end metrics over all runs (``metrics``) and checks the outputs it
produced against references computed apart from the program (``check``).  Every workload runs all three
parts, so that every workload reports every end-to-end metric: one part at
the paper's size and the other two at a small fixed size (see README.md).

The checks module is imported only when checking, so that its scipy imports
stay out of the set-up time.
"""

from __future__ import annotations

import csv
import ctypes
import ctypes.util
import gc
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import polarq
from polarq import cli

BSC_EPS = 0.11
# BAWGN noise level of capacity 1/2, from checks.bawgn_sigma(0.5); the
# construct checks confirm its capacity by quadrature
BAWGN_SIGMA_HALF = 0.9786941246157008
Q_SIZES = (3, 5, 9, 17, 33, 65)  # ascending: the order changes how the heap is reused
M_SAT = 8.0
E_GRID = 33

# decoder label -> (CLI flags, construction quantizer)
DECODERS = {
    "exact": (["--decoder", "exact"], "q:delta=0.25,M=16"),
    "quantized": (["--decoder", "quantized", "--quantizer", "q:delta=1,M=8"], "q:delta=1,M=8"),
    "erasure": (["--decoder", "erasure"], "q:sign"),
}


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def fresh_state():
    """Start the next command from the state of a fresh CLI process.

    Empties every function cache in polarq and hands the freed C heap back
    to the system.  Without the trim a command reuses pages an earlier,
    larger command left mapped and skips the page faults a fresh process
    pays; that made the small parts up to 1.6 times faster after a
    construct round than after a decode round.
    """
    for module in (polarq.channels, polarq.quantizer, polarq.codec,
                   polarq.density_evolution, polarq.bounds, polarq.sim, cli):
        for value in list(vars(module).values()):
            for obj in (value, getattr(value, "__wrapped__", None)):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
                    break
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def timed_cli(argv) -> float:
    """Seconds taken by one ``polarq`` command; a failing command aborts the run."""
    fresh_state()
    start = perf_counter()
    status = cli.main(argv)
    elapsed = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"polarq {' '.join(argv)} exited with {status}")
    return elapsed


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


SIMULATE_FIELDS = ("n", "rate", "trials", "seed", "block_errors", "bler", "ci95")


def read_simulate_row(path):
    """The numeric fields of a one-row ``simulate`` CSV, read from the right.

    The leading decoder and channel fields are skipped: a quantizer label
    such as ``q:delta=1,M=8`` is written unquoted and adds a comma.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if len(lines) != 2:
        raise ValueError(f"{path}: expected a header and one row, got {len(lines)} lines")
    fields = lines[1].rsplit(",", len(SIMULATE_FIELDS))[1:]
    return dict(zip(SIMULATE_FIELDS, fields))


class Part:
    """What the runner needs of a part; subclasses fill ``samples`` per metric."""

    METRICS: dict = {}  # metric name -> unit
    commands_per_run = 0  # each command is one checked operation

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.samples = {name: [] for name in self.METRICS}

    def metrics(self):
        return {name: statistics.median(v) for name, v in self.samples.items()}


# ---------------------------------------------------------------------------


class DecodePart(Part):
    """Block-error ``simulate`` of a BSC(0.11) code under each decoder."""

    METRICS = {"exact_trials_per_s": "trials/s", "quantized_trials_per_s": "trials/s",
               "erasure_trials_per_s": "trials/s"}
    commands_per_run = len(DECODERS)

    def __init__(self, n: int, trials: int, repeats: int = 1):
        super().__init__(repeats)
        self.n = n
        self.trials = trials
        self.channel = f"bsc:{BSC_EPS!r}"
        self.rows = []  # per run: decoder -> simulate CSV fields

    def setup(self, rng, workdir: Path):
        size = 1 << self.n
        self.k = int(rng.integers(size // 4, size // 2 + 1))
        self.seed = int(rng.integers(0, 2**31))  # run r simulates with seed + r
        self.dir = workdir
        for label, (_, quantizer) in DECODERS.items():
            timed_cli(["construct", "--channel", self.channel, "--quantizer", quantizer,
                      "--n", str(self.n), "--rate", repr(self.k / size),
                      "--out", str(self._code(label))])

    def _code(self, label):
        return self.dir / f"decode-n{self.n}-{label}.code"

    def run(self):
        index = len(self.rows)
        out = self.dir / f"decode-n{self.n}.csv"
        rows = {}
        self.rows.append(rows)
        for label, (flags, _) in DECODERS.items():
            out.unlink(missing_ok=True)
            seconds = timed_cli(["simulate", "--code", str(self._code(label)),
                                 "--channel", self.channel, *flags,
                                 "--trials", str(self.trials),
                                 "--seed", str(self.seed + index), "--out", str(out)])
            self.samples[f"{label}_trials_per_s"].append(self.trials / seconds)
            rows[label] = read_simulate_row(out)
            yield

    def check(self):
        import checks
        from polarq import BSC, QuantizerSpec, genie_bit_errors, quantize_density
        from polarq import synthesize, synthesize_triples
        from polarq.cli import read_code_file

        size = 1 << self.n
        results = []
        for index, rows in enumerate(self.rows):
            for label, row in rows.items():
                ok = (int(row["trials"]) == self.trials and int(row["seed"]) == self.seed + index
                      and int(row["n"]) == self.n
                      and 0 <= int(row["block_errors"]) <= self.trials)
                if not ok:
                    results.append((f"simulate {label} CSV row, run {index}", False, str(row)))
        channel = BSC(BSC_EPS)
        eps = channel.eps
        spec = QuantizerSpec(1.0, 8.0)
        decoders = {"exact": "exact", "quantized": spec, "erasure": "erasure"}
        for label, decoder in decoders.items():
            code, _ = read_code_file(str(self._code(label)))
            genie = genie_bit_errors(code, channel, decoder, self.trials, self.seed)
            simulated = int(self.rows[0][label]["block_errors"])
            results.append((f"{label}: simulate block errors = genie block errors",
                            simulated == genie.block_errors,
                            f"{simulated} vs {genie.block_errors}"))
            counts = genie.per_index_errors
            if label == "exact":
                ref = [checks.all_check_error(eps, size), checks.all_var_error(eps, size)]
                counts = counts[[0, size - 1]]
            elif label == "quantized":
                family = synthesize(quantize_density(channel.llr_density(), spec), self.n, spec)
                alphabet = family.alphabet
                ref = (family.data[:, alphabet < 0].sum(axis=1)
                       + 0.5 * family.data[:, alphabet == 0].sum(axis=1))
            else:
                data = synthesize_triples(channel.triple(), self.n).data
                ref = data[:, 2] + 0.5 * data[:, 1]
            ok, rejected, min_p = checks.binomial_check(counts, self.trials, ref)
            results.append((f"{label}: genie counts binomial against its law", ok,
                            f"{rejected} of {len(ref)} rejected, min adjusted p {min_p:.3g}"))
        return results, []


# ---------------------------------------------------------------------------


class ConstructPart(Part):
    """Finite-alphabet DE on BAWGN at capacity 1/2: a deep sweep and a fine construct."""

    METRICS = {"sweep_q_s": "s", "fine_construct_s": "s"}
    commands_per_run = len(Q_SIZES) + 1  # a sweep-q per alphabet, one fine construct

    def __init__(self, sweep_n: int, fine_q: int, fine_n: int, repeats: int = 1):
        super().__init__(repeats)
        self.sweep_n = sweep_n
        self.fine_q = fine_q
        self.fine_n = fine_n
        self.outputs = []  # per run: (sweep rows, fine code)

    def setup(self, rng, workdir: Path):
        self.sigma = BAWGN_SIGMA_HALF
        self.channel = f"bawgn:{self.sigma!r}"
        self.target = float(10.0 ** rng.uniform(-4.0, -2.0))
        size = 1 << self.fine_n
        self.fine_k = int(rng.integers(size // 4, 3 * size // 4 + 1))
        self.fine_spec = f"q:delta={2.0 * M_SAT / (self.fine_q - 1)!r},M={M_SAT!r}"
        self.dir = workdir

    def run(self):
        """The sweep as one ``sweep-q`` command per alphabet, summed, then the fine construct.

        One command per alphabet costs what one command over all of them
        does, less a millisecond of argument parsing and capacity per
        alphabet, and gives the runner places to put the small parts.
        """
        sweep, seconds = [], 0.0
        for q in Q_SIZES:
            out = self.dir / f"sweep-n{self.sweep_n}-q{q}.csv"
            seconds += timed_cli(
                ["sweep-q", "--channel", self.channel, "--q-sizes", str(q),
                 "--n", str(self.sweep_n), "--target-sum", repr(self.target),
                 "--m-sat", repr(M_SAT), "--out", str(out)])
            sweep.extend(read_csv(out))
            yield
        self.samples["sweep_q_s"].append(seconds)
        fine = self.dir / f"fine-n{self.fine_n}.code"
        self.samples["fine_construct_s"].append(timed_cli(
            ["construct", "--channel", self.channel, "--quantizer", self.fine_spec,
             "--n", str(self.fine_n), "--rate", repr(self.fine_k / (1 << self.fine_n)),
             "--out", str(fine)]))
        self.outputs.append((sweep, fine.read_text(encoding="ascii")))
        yield

    def _family(self, q, n):
        """Root-message laws as (rows over the alphabet, level-0 law), from the library."""
        from polarq import BAWGN, QuantizerSpec, quantize_density, synthesize, synthesize_triples

        channel = BAWGN(self.sigma)
        if q == 3:
            d0 = channel.triple()
            data = synthesize_triples(d0, n).data
            return data[:, ::-1], np.array([d0.m, d0.e, d0.p])  # to (-inf, 0, +inf) order
        spec = QuantizerSpec(delta=2.0 * M_SAT / (q - 1), m_sat=M_SAT)
        d0 = quantize_density(channel.llr_density(grid=cli.DEFAULT_GRID, span=cli.DEFAULT_SPAN),
                              spec)
        return synthesize(d0, n, spec).data, np.asarray(d0.probs)

    @staticmethod
    def _family_checks(name, rows, level0, capacity, results, failures):
        """Checks of one family; a family that breaks the mass contract is a failed operation."""
        import checks

        mean_info = float(checks.symmetric_information(rows).mean())
        level0_info = float(checks.symmetric_information(level0))
        results.append((f"{name}: mean root information <= level 0 <= capacity",
                        checks.data_processing_check(mean_info, level0_info, capacity),
                        f"{mean_info:.12f} <= {level0_info:.12f} <= {capacity:.12f}"))
        bad_rows = checks.mass_failures(rows)
        if bad_rows:
            failures.append(f"{name}: {bad_rows} of {len(rows)} rows are not probability "
                            "vectors within 1e-12")

    @staticmethod
    def _error_probs(rows):
        half = rows.shape[1] // 2  # alphabet is antisymmetric with 0 in the middle
        return rows[:, :half].sum(axis=1) + 0.5 * rows[:, half]

    def check(self):
        import checks

        capacity = checks.bawgn_capacity(self.sigma)
        results = [("BAWGN channel has capacity 1/2", abs(capacity - 0.5) <= 1e-9, repr(capacity))]
        failures = []
        expected_k = {}
        for q in Q_SIZES:
            rows, level0 = self._family(q, self.sweep_n)
            self._family_checks(f"sweep |Q|={q} n={self.sweep_n}", rows, level0, capacity,
                                results, failures)
            perr = np.sort(self._error_probs(rows))
            expected_k[q] = int(np.searchsorted(np.cumsum(perr), self.target, side="right"))
        rows, level0 = self._family(self.fine_q, self.fine_n)
        self._family_checks(f"fine |Q|={self.fine_q} n={self.fine_n}", rows, level0, capacity,
                            results, failures)
        order = np.argsort(self._error_probs(rows), kind="stable")
        expected_info = sorted(int(i) for i in order[:self.fine_k])
        for index, (sweep, code) in enumerate(self.outputs):
            got = {int(r["q"]): int(r["k"]) for r in sweep}
            results.append((f"sweep-q k per alphabet, run {index}", got == expected_k,
                            f"{got} vs {expected_k}"))
            info = sorted(int(s) for s in code.splitlines()[1:] if s.strip())
            results.append((f"fine construct information set, run {index}",
                            info == expected_info, f"{len(info)} indices"))
        return results, failures


# ---------------------------------------------------------------------------


class CurvePart(Part):
    """Achievable-rate curve points: BSC and BAWGN family points and a universal point."""

    METRICS = {"family_point_s": "s", "universal_point_s": "s"}
    commands_per_run = 3  # one bsc, one bawgn and one universal curve command

    def __init__(self, n: int, points: int | None, samples: int, repeats: int = 1):
        super().__init__(repeats)
        self.n = n
        self.fixed_points = points  # None: drawn from the seed
        self.mc_samples = samples
        self.outputs = []  # per run: family -> CSV rows

    def setup(self, rng, workdir: Path):
        self.points = self.fixed_points or int(rng.integers(2, 5))
        self.mc_seed = int(rng.integers(0, 2**31))
        self.dir = workdir

    def _curve(self, family, points):
        out = self.dir / f"curve-n{self.n}-{family}.csv"
        seconds = timed_cli(["curve", "--family", family, "--points", str(points),
                             "--n", str(self.n), "--e-grid", str(E_GRID), "--out", str(out)])
        return seconds, read_csv(out)

    def run(self):
        bsc_s, bsc = self._curve("bsc", self.points)
        yield
        bawgn_s, bawgn = self._curve("bawgn", self.points)
        self.samples["family_point_s"].append((bsc_s + bawgn_s) / (2 * self.points))
        yield
        universal_s, universal = self._curve("universal", 1)
        self.samples["universal_point_s"].append(universal_s)
        self.outputs.append({"bsc": bsc, "bawgn": bawgn, "universal": universal})
        yield

    def check(self):
        import checks
        from polarq import bounds

        results = []
        first = self.outputs[0]
        for index, out in enumerate(self.outputs[1:], start=1):
            results.append((f"curve output repeats, run {index}", out == first, ""))
        seed = self.mc_seed
        for family, rows in first.items():
            grid = checks.capacity_grid(1 if family == "universal" else self.points)
            caps = [float(r["capacity"]) for r in rows]
            results.append((f"{family}: capacity grid", np.allclose(caps, grid, rtol=0, atol=1e-9)
                            and int(rows[0]["n"]) == self.n, str(caps)))
            for cap, row in zip(grid, rows):
                lower, upper = float(row["lower"]), float(row["upper"])
                results.append((f"{family} {cap:.4g}: 0 <= lower <= upper <= capacity",
                                -1e-9 <= lower <= upper + 1e-9 and upper <= cap + 1e-9,
                                f"{lower} {upper}"))
                if family == "bsc":
                    eps = bounds._bsc_for_capacity(float(cap)).eps
                    solved = checks.bsc_capacity(eps)
                    triples = [(1.0 - eps, 0.0, eps)]
                elif family == "bawgn":
                    sigma = bounds._bawgn_for_capacity(float(cap)).sigma
                    solved = checks.bawgn_capacity(sigma)
                    triples = [checks.bawgn_triple(sigma)]
                else:
                    solved = None
                    triples = checks.universal_triples(float(cap), E_GRID)
                if solved is not None:
                    results.append((f"{family} {cap:.4g}: root-solved channel capacity",
                                    abs(solved - cap) <= 1e-9, repr(solved)))
                # the 33 universal triples share a quarter-size budget each
                samples = self.mc_samples if len(triples) == 1 else self.mc_samples // 4
                means, errors = checks.sampled_upper(triples, self.n, samples, seed)
                seed += 1
                results.append((f"{family} {cap:.4g}: upper within sampled-path interval",
                                checks.upper_check(upper, means, errors),
                                f"U={upper} sampled {float(np.min(means)):.6f}"
                                f" +- {checks.Z_SAMPLED * float(np.max(errors)):.2g}"))
        return results, []


# ---------------------------------------------------------------------------


def build(workload: str):
    """The parts of a workload, the main part first."""
    # the small parts repeat within a round, so that their medians rest on
    # about as many samples as the main part's
    small = {
        "decode": lambda: DecodePart(n=8, trials=256, repeats=4),
        "construct": lambda: ConstructPart(sweep_n=10, fine_q=501, fine_n=4, repeats=4),
        "curve": lambda: CurvePart(n=14, points=2, samples=1 << 15, repeats=4),
    }
    main = {
        "decode": lambda: DecodePart(n=10, trials=1024),
        "construct": lambda: ConstructPart(sweep_n=16, fine_q=2001, fine_n=5),
        "curve": lambda: CurvePart(n=20, points=None, samples=1 << 17),
    }
    if workload not in main:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(main)}")
    return [main[workload]()] + [make() for name, make in small.items() if name != workload]
