"""Command-line front end: construction, bounds, curves, simulation, sweeps.

Every command is deterministic given its full flag set and writes CSV with a
single header line (or the code-file format for ``construct``).  Output files
are only written after the computation succeeded, so a failing run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .channels import BAWGN, ChannelModel, parse_channel
from .codec import PolarCode
from .density_evolution import (
    SynthesizedFamily,
    choose_info_set,
    rate_for_union_bound,
    synthesize,
    synthesize_triples,
)
from .quantizer import (
    SIGN,
    QuantizerSpec,
    SignQuantizer,
    parse_quantizer,
    quantize_density,
)
from .sim import TRIAL_CSV_HEADER, simulate_block_error

CODE_FILE_MAGIC = "polarq-code v1"

# BAWGN's LLR grid, under the names the benchmark's construct check reads
DEFAULT_GRID = BAWGN.LLR_GRID
DEFAULT_SPAN = BAWGN.LLR_SPAN
DEFAULT_M_SAT = 8.0


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="ascii")


# ---------------------------------------------------------------------------
# code files


def write_code_file(path: str, code: PolarCode, channel_spec: str,
                    quantizer_spec: str) -> None:
    lines = [f"{CODE_FILE_MAGIC} n={code.n} k={len(code.info_set)} "
             f"channel={channel_spec} quantizer={quantizer_spec}"]
    lines.extend(str(i) for i in sorted(code.info_set))
    _write_text(path, "\n".join(lines) + "\n")


def read_code_file(path: str) -> tuple[PolarCode, dict]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith(CODE_FILE_MAGIC):
        raise ValueError(f"{path} is not a polarq code file")
    meta = {}
    for token in lines[0][len(CODE_FILE_MAGIC):].split():
        key, sep, val = token.partition("=")
        if not sep:
            raise ValueError(f"malformed code file header token {token!r}")
        meta[key] = val
    n = int(meta["n"])
    k = int(meta["k"])
    indices = [int(s) for s in lines[1:] if s.strip()]
    info = frozenset(indices)
    if len(info) != len(indices) or len(info) != k:
        raise ValueError(f"code file lists {len(indices)} indices ({len(info)} distinct), "
                         f"header says {k}")
    return PolarCode(n=n, info_set=info), meta


# ---------------------------------------------------------------------------
# shared construction helpers


def _synthesized_family(channel: ChannelModel, quantizer, n: int) -> SynthesizedFamily:
    if isinstance(quantizer, SignQuantizer):
        return synthesize_triples(channel.triple(), n)
    d0 = quantize_density(channel.llr_density(), quantizer)
    return synthesize(d0, n, quantizer)


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(args) -> None:
    channel = parse_channel(args.channel)
    d0 = channel.triple()
    series = (bounds_mod.bounds_series(d0, args.n) if args.tol is None
              else bounds_mod._bracketed_series(d0, args.tol, args.n))
    _write_text(args.out, "\n".join(series.csv_rows()) + "\n")


def cmd_curve(args) -> None:
    rows = bounds_mod.curve(args.family, args.points, args.n, e_grid=args.e_grid)
    out = ["capacity,lower,upper,n"]
    out.extend(f"{_fmt(c)},{_fmt(lo)},{_fmt(up)},{args.n}" for c, lo, up in rows)
    _write_text(args.out, "\n".join(out) + "\n")


def cmd_construct(args) -> None:
    channel = parse_channel(args.channel)
    quantizer = parse_quantizer(args.quantizer)
    if args.n < 0:
        raise ValueError(f"n must be nonnegative, got {args.n}")
    if not math.isfinite(args.rate):
        raise ValueError(f"rate must be finite, got {args.rate}")
    size = 1 << args.n
    k_real = args.rate * size
    k = round(k_real)
    if abs(k_real - k) > 1e-9:
        raise ValueError(f"rate {args.rate} does not give an integral k at N={size}")
    family = _synthesized_family(channel, quantizer, args.n)
    info = choose_info_set(family, k)
    code = PolarCode(n=args.n, info_set=info)
    write_code_file(args.out, code, args.channel, args.quantizer)


def cmd_simulate(args) -> None:
    path = Path(args.out)
    append = path.exists() and path.stat().st_size > 0
    if append:
        with path.open(encoding="ascii") as fh:
            if fh.readline().rstrip("\n") != TRIAL_CSV_HEADER:
                raise ValueError(f"{args.out} does not start with the simulate CSV header; "
                                 "refusing to append to it")
    code, _ = read_code_file(args.code)
    channel = parse_channel(args.channel)
    if (args.decoder == "quantized") != bool(args.quantizer):
        raise ValueError("--decoder quantized requires --quantizer, and no other decoder takes one")
    decoder = parse_quantizer(args.quantizer) if args.quantizer else args.decoder
    report = simulate_block_error(code, channel, decoder, args.trials, args.seed,
                                  threads=args.threads)
    row = report.csv_row(channel, code)
    with path.open("a" if append else "w", encoding="ascii") as fh:
        fh.write(("" if append else TRIAL_CSV_HEADER + "\n") + row + "\n")


def cmd_sweep_q(args) -> None:
    channel = parse_channel(args.channel)
    sizes = [int(s) for s in args.q_sizes.split(",") if s.strip()]
    if not sizes:
        raise ValueError("--q-sizes must list at least one alphabet size")
    capacity = channel.capacity()
    out = ["q,log2_q,delta,m_sat,n,target_sum,k,rate,capacity_gap"]
    for q in sizes:
        if q < 3 or q % 2 == 0:
            raise ValueError(f"alphabet sizes must be odd and at least 3, got {q}")
        if q == 3:
            # the three-level decoder is the sign quantizer (the M = delta
            # limit); the uniform rule at q = 3 would send every moderate
            # LLR to 0
            family = _synthesized_family(channel, SIGN, args.n)
            delta_str = "sign"
        else:
            spec = QuantizerSpec(delta=2.0 * args.m_sat / (q - 1), m_sat=args.m_sat)
            family = _synthesized_family(channel, spec, args.n)
            delta_str = _fmt(spec.delta)
        k = rate_for_union_bound(family, args.target_sum)
        rate = k / family.block_length
        out.append(f"{q},{_fmt(math.log2(q))},{delta_str},{_fmt(args.m_sat)},"
                   f"{args.n},{_fmt(args.target_sum)},{k},{_fmt(rate)},"
                   f"{_fmt(capacity - rate)}")
    _write_text(args.out, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarq",
        description="Polar codes under quantized successive-cancellation decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="lower/upper bound series for a channel")
    p.add_argument("--channel", required=True, help="bec:<e> bsc:<e> bawgn:<s> triple:<p>,<e>,<m>")
    p.add_argument("--n", type=int, required=True, help="deepest level n_max")
    p.add_argument("--tol", type=float, default=None,
                   help="stop at the first level whose bracket is this tight")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("curve", help="achievable-rate curve over a channel family")
    p.add_argument("--family", required=True, choices=bounds_mod.CURVE_FAMILIES)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--e-grid", type=int, default=33, help="erasure grid for the universal family")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("construct", help="choose the information set for a code")
    p.add_argument("--channel", required=True)
    p.add_argument("--quantizer", required=True, help="q:sign or q:delta=<d>,M=<M>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="seeded block-error simulation")
    p.add_argument("--code", required=True, help="code file from construct")
    p.add_argument("--channel", required=True)
    p.add_argument("--decoder", required=True, choices=["exact", "erasure", "quantized"])
    p.add_argument("--quantizer", default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-q", help="achievable rate vs alphabet size")
    p.add_argument("--channel", required=True)
    p.add_argument("--q-sizes", required=True, help="comma list of odd alphabet sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target-sum", type=float, required=True,
                   help="union-bound budget defining the achievable rate")
    p.add_argument("--m-sat", type=float, default=DEFAULT_M_SAT,
                   help="saturation M; delta = 2M/(q-1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_q)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"polarq: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
