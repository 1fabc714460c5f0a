"""Run one polarq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode|construct|curve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src, one
process, one thread, commands issued in a closed loop.  A run repeats whole
rounds of its commands until S seconds have passed, then checks every
output.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced rounds, takes the per-layer metrics from the traced
ones and reports the difference in round time as the tracing overhead; it
also writes every span to perfbench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("decode", "construct", "curve")
SETUP_SAMPLES = 3  # the last in this process, the others in fresh interpreters


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="time one set-up into DIR, print the seconds and exit")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path, traced: bool = False):
    """Import the program, make the inputs from ``seed`` and construct the codes.

    Returns (parts, tracer); with ``traced`` the set-up's spans are recorded.
    """
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np

    import parts
    import polarq

    if Path(polarq.__file__).resolve().parent != (SRC / "polarq").resolve():
        raise RuntimeError(f"polarq was imported from {polarq.__file__}, not {SRC}")
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rng = np.random.default_rng(seed)
    workload_parts = parts.build(workload)
    try:
        for part in workload_parts:
            part.setup(rng, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload_parts, tracer


def _commands(part):
    for _ in range(part.repeats):
        yield from part.run()


def play_round(workload_parts):
    """Run the main part once and each small part ``repeats`` times.

    The small parts' commands are spread evenly between the main part's, so
    that their samples are taken across the whole round and not in one
    stretch of it: this machine's speed wanders on a scale of seconds.
    """
    main, *small = workload_parts
    streams = [_commands(part) for part in small]
    shares = [-(-part.repeats * part.commands_per_run // main.commands_per_run)
              for part in small]
    for _ in main.run():
        for stream, share in zip(streams, shares):
            for _ in itertools.islice(stream, share):
                pass
    for stream in streams:
        for _ in stream:
            pass


def child_setup_seconds(args, workdir: Path) -> float:
    """Set-up time measured in a fresh interpreter, imports included."""
    workdir.mkdir()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def run(args, workdir: Path) -> dict:
    setup_samples = []
    if not args.trace:
        setup_samples = [child_setup_seconds(args, workdir / f"setup{i}")
                         for i in range(SETUP_SAMPLES - 1)]
    start = perf_counter()
    workload_parts, tracer = set_up(args.workload, args.seed, workdir, traced=bool(args.trace))
    setup_samples.append(perf_counter() - start)
    setup_spans = (0, len(tracer.spans)) if tracer else None

    # whole rounds until the time is up; a traced run needs one round of each kind
    round_seconds = {False: [], True: []}
    traced_rounds = []
    rounds = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            lo = len(tracer.spans)
            tracer.install()
        began = perf_counter()
        try:
            play_round(workload_parts)
        finally:
            if traced:
                tracer.uninstall()
        round_seconds[traced].append(perf_counter() - began)
        if traced:
            traced_rounds.append((lo, len(tracer.spans)))
        rounds += 1
        if perf_counter() - start >= args.seconds and (tracer is None or rounds >= 2):
            break
    elapsed = perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks_began = perf_counter()
    results, failures, failed_per_round = [], [], 0
    for part in workload_parts:
        part_results, part_failures = part.check()  # failures: operations failing every run
        results.extend(part_results)
        failures.extend(part_failures)
        failed_per_round += len(part_failures) * part.repeats
    failed = rounds * failed_per_round
    correct = all(passed for _, passed, _ in results)
    attempted = rounds * sum(part.commands_per_run * part.repeats for part in workload_parts)

    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds in {elapsed:.2f} s, "
          f"checks in {perf_counter() - checks_began:.2f} s")
    for name, passed, detail in results:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    for failure in failures:
        print(f"  failed in every run: {failure}")
    print(f"  attempted {attempted}, failed {failed}")

    if tracer is None:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}
        for part in workload_parts:
            for name, value in part.metrics().items():
                metrics[name] = {"value": value, "unit": part.METRICS[name]}
                samples = part.samples[name]
                print(f"  {name}: median of {len(samples)}, "
                      f"range {min(samples):.6g} to {max(samples):.6g}")
        print(f"  set-up samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    else:
        import tracing

        overhead = 100.0 * (statistics.median(round_seconds[True])
                            / statistics.median(round_seconds[False]) - 1.0)
        metrics, missing = tracing.layer_report(tracer, traced_rounds, overhead)
        for name, why in missing.items():
            print(f"  per-layer metric {name} missing: {why} not found")
        print(f"  tracing overhead {overhead:+.2f}% "
              f"(median round {statistics.median(round_seconds[True]):.3f} s traced, "
              f"{statistics.median(round_seconds[False]):.3f} s untraced)")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "missing": tracer.missing,
            "setup_spans": setup_spans,
            "traced_rounds": traced_rounds,
            "round_seconds": {"untraced": round_seconds[False], "traced": round_seconds[True]},
            "levels": tracing.level_table(tracer.spans, traced_rounds),
            "span_fields": ["label", "detail", "start", "end", "parent"],
            "spans": tracer.spans,
        }), encoding="ascii")
        print(f"  trace written to {trace_file.relative_to(HERE.parent)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polarq" / "__init__.py").is_file():
        print(f"run.py: no polarq sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        start = perf_counter()
        set_up(args.workload, args.seed, Path(args.setup_only))
        print(perf_counter() - start)
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
