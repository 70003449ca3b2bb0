"""Command-line front end.

Subcommands: ``ser``, ``sep``, ``tradeoff`` (Monte-Carlo experiments
writing CSV/JSON), ``bound`` (analytic list-miss bound only),
``complexity`` (multiplication counts), ``table-build`` (writes the
sphere-table binary), and ``llr`` (per-user soft outputs for one
observation). Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

import numpy as np

from .analysis import ComplexityQuery, complexity_model, compute_llrs
from .detectors import assemble_list, write_sphere_table
from .experiments import (
    ConfigError,
    ExperimentConfig,
    _write_text,
    resolve_workers,
    run_bound_sweep,
    run_sep_experiment,
    run_ser_experiment,
    run_tradeoff_sweep,
    single_block,
    write_records,
)


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _str_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


def _sign_list(text: str) -> tuple:
    vals = _int_list(text)
    if any(v not in (-1, 1) for v in vals):
        raise argparse.ArgumentTypeError("observation entries must be +1 or -1")
    return vals


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-U", "--users", type=int, required=True, help="number of uplink users")
    p.add_argument("-N", "--antennas", type=int, required=True, help="number of receive antennas")
    p.add_argument("--mod", choices=("bpsk", "qam4", "qam16"), default="qam4",
                   help="per-user constellation")
    p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")


def _add_sphere_args(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--ns", type=int, required=required, help="sphere sub-vector dimension")
    p.add_argument("--list-size", type=int, required=required,
                   help="sphere per-pattern list size")


def _add_experiment_args(p: argparse.ArgumentParser, run) -> None:
    """Flags every Monte-Carlo command shares, and ``run`` as its driver."""
    p.set_defaults(func=partial(_cmd_experiment, run))
    _add_system_args(p)
    p.add_argument("--snr-db", type=_float_list, default=(0.0, 5.0, 10.0),
                   help="comma-separated SNR grid in dB (SNR = 1/sigma^2)")
    p.add_argument("--trials", type=int, default=10_000, help="trials per (channel, SNR) point")
    p.add_argument("--channels", type=int, default=100, help="number of channel realizations")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (OBDK_THREADS overrides)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def _cmd_experiment(run, args) -> int:
    """Run one Monte-Carlo command and write its records; the fields that
    only some commands declare are read from ``args`` when present."""
    own = ("list_size", "detectors", "list_sizes", "time_slots")
    cfg = ExperimentConfig(
        users=args.users, antennas=args.antennas, modulation=args.mod, snr_db=args.snr_db,
        n_sub=args.ns, trials=args.trials, channels=args.channels, seed=args.seed,
        workers=resolve_workers(args.workers),
        **{name: getattr(args, name) for name in own if hasattr(args, name)},
    )
    write_records(run(cfg), args.out, args.fmt)
    return 0


def _cmd_complexity(args) -> int:
    query = ComplexityQuery(
        args.detector, args.users, args.antennas, args.codebook_size, args.td,
        n_sub=args.ns, list_size=args.list_size,
    )
    pre, det = complexity_model(query)
    if pre:
        print(pre, det)
    else:
        print(det)
    return 0


def _single_block(args, y=None):
    cfg = ExperimentConfig(
        users=args.users, antennas=args.antennas, modulation=args.mod,
        seed=args.seed, n_sub=args.ns, list_size=args.list_size,
    )
    return single_block(cfg, args.snr_db, y)


def _cmd_table_build(args) -> int:
    write_sphere_table(_single_block(args)[2], args.out)
    return 0


def _cmd_llr(args) -> int:
    if args.mod != "qam4":
        raise ConfigError("--mod must be qam4 for soft outputs")
    y = np.asarray(args.y, dtype=np.int8)
    cb, ws, table = _single_block(args, y)
    candidates = assemble_list(y, table)
    rows = []
    for user in range(args.users):
        odd, even = compute_llrs(y, candidates, cb, ws, user)
        rows.append({"user": user, "llr_odd": odd, "llr_even": even})
    if args.fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = "user,llr_odd,llr_even\n" + "".join(
            f"{r['user']},{r['llr_odd']!r},{r['llr_even']!r}\n" for r in rows
        )
    _write_text(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obdk",
        description="One-bit MIMO detection experiments (SNR in dB of 1/sigma^2 per user)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ser", help="symbol-error-rate sweep with paired noise")
    _add_experiment_args(p, run_ser_experiment)
    p.add_argument("--detectors", type=_str_list, default=("mld", "mwd"),
                   help="comma-separated subset of mld,mwd-exact,mwd,mwd-hs,osd")
    _add_sphere_args(p)

    p = sub.add_parser("sep", help="list-miss rate, loss rate, and analytic bound")
    _add_experiment_args(p, run_sep_experiment)
    _add_sphere_args(p)

    p = sub.add_parser("tradeoff", help="relative SER vs relative complexity sweep")
    _add_experiment_args(p, run_tradeoff_sweep)
    p.add_argument("--ns", type=int, required=True, help="sphere sub-vector dimension")
    p.add_argument("--list-sizes", type=_int_list, required=True,
                   help="comma-separated list sizes to sweep")
    p.add_argument("--td", type=int, default=4096, dest="time_slots", metavar="TD",
                   help="detection slots per coherence block")

    p = sub.add_parser("bound", help="channel-averaged analytic list-miss bound")
    _add_experiment_args(p, run_bound_sweep)
    _add_sphere_args(p)

    p = sub.add_parser("complexity", help="real-multiplication counts per detector")
    p.add_argument("--detector", choices=("mld", "mwd", "osd"), required=True)
    p.add_argument("-U", "--users", type=int, required=True)
    p.add_argument("-N", "--antennas", type=int, required=True)
    p.add_argument("-K", "--codebook-size", type=int, required=True)
    p.add_argument("--td", type=int, required=True, help="detection slots per coherence block")
    _add_sphere_args(p)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("table-build", help="write a sphere-table binary for one seeded channel")
    _add_system_args(p)
    p.add_argument("--snr-db", type=float, required=True, help="operating SNR in dB")
    _add_sphere_args(p, required=True)
    p.add_argument("--out", required=True, help="output path for the table binary")
    p.set_defaults(func=_cmd_table_build)

    p = sub.add_parser("llr", help="per-user soft outputs for one observation")
    _add_system_args(p)
    p.add_argument("--snr-db", type=float, required=True, help="operating SNR in dB")
    _add_sphere_args(p, required=True)
    p.add_argument("--y", type=_sign_list, required=True,
                   help="comma-separated +/-1 observation of length 2N")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.set_defaults(func=_cmd_llr)

    return parser


def _attach_negative_lists(argv) -> list:
    """Rewrite ``--snr-db -5,0`` as ``--snr-db=-5,0`` (likewise ``--y``):
    argparse reads a value that starts with a minus sign and is not a
    plain number (``-.5,0``, ``-inf``) as an option. Every option here is
    ``--name`` or a dash and one letter, so any other value is rejoined."""
    out = []
    for arg in argv:
        if (out and out[-1] in ("--snr-db", "--y") and arg.startswith("-")
                and not re.fullmatch(r"--.*|-[A-Za-z]", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
