"""Command-line front end.

Subcommands: ``ser``, ``sep``, ``tradeoff`` (Monte-Carlo experiments
writing CSV/JSON), ``bound`` (analytic list-miss bound only),
``complexity`` (multiplication counts), ``table-build`` (writes the
sphere-table binary), and ``llr`` (per-user soft outputs for one
observation). Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np

from .analysis import COMPLEXITY_DETECTORS, ComplexityQuery, complexity_model, compute_llrs
from .codebook import SCHEMES
from .detectors import assemble_list, write_sphere_table
from .experiments import (
    DETECTOR_NAMES,
    ConfigError,
    ExperimentConfig,
    resolve_workers,
    run_bound_sweep,
    run_sep_experiment,
    run_ser_experiment,
    run_tradeoff_sweep,
    single_block,
    write_records,
    write_rows,
)

LLR_COLUMNS = ("user", "llr_odd", "llr_even")


def _list_of(convert, noun: str):
    """Argument type: comma-separated ``convert`` values, empty ones dropped."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(v.strip()) for v in text.split(",") if v.strip() != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
    return parse


def _sign_list(text: str) -> tuple:
    vals = _list_of(int, "integers")(text)
    if any(v not in (-1, 1) for v in vals):
        raise argparse.ArgumentTypeError("observation entries must be +1 or -1")
    return vals


def _from_flags(cls, args):
    """``cls`` built from the parsed flags named after its fields; a flag
    left out keeps the field's default."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-U", "--users", type=int, required=True, help="number of uplink users")
    p.add_argument("-N", "--antennas", type=int, required=True, help="number of receive antennas")
    p.add_argument("--mod", dest="modulation", choices=SCHEMES, help="per-user constellation")
    p.add_argument("--seed", type=int, help="64-bit experiment seed")


def _add_sphere_args(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--ns", dest="n_sub", metavar="NS", type=int, required=required,
                   help="sphere sub-vector dimension")
    p.add_argument("--list-size", type=int, required=required,
                   help="sphere per-pattern list size")


def _add_experiment_args(p: argparse.ArgumentParser, run, draws: bool = True) -> None:
    """Flags every Monte-Carlo command shares, and ``run`` as its driver;
    ``--trials`` only when the command ``draws`` trials."""
    p.set_defaults(func=partial(_cmd_experiment, run))
    _add_system_args(p)
    p.add_argument("--snr-db", type=_list_of(float, "numbers"),
                   help="comma-separated SNR grid in dB (SNR = 1/sigma^2)")
    if draws:
        p.add_argument("--trials", type=int, help="trials per (channel, SNR) point")
    p.add_argument("--channels", type=int, help="number of channel realizations")
    p.add_argument("--workers", type=int, help="worker processes (OBDK_THREADS overrides)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def _add_block_args(p: argparse.ArgumentParser, func) -> None:
    """Flags of the commands that work on one block, and ``func`` as their handler."""
    p.set_defaults(func=func)
    _add_system_args(p)
    p.add_argument("--snr-db", dest="snr", metavar="SNR_DB", type=float, required=True,
                   help="operating SNR in dB")
    _add_sphere_args(p, required=True)


def _cmd_experiment(run, args) -> int:
    """Run one Monte-Carlo command and write its records; only these
    commands read OBDK_THREADS."""
    cfg = _from_flags(ExperimentConfig, args)
    write_records(run(replace(cfg, workers=resolve_workers(cfg.workers))), args.out, args.fmt)
    return 0


def _cmd_complexity(args) -> int:
    pre, det = complexity_model(_from_flags(ComplexityQuery, args))
    if pre:
        print(pre, det)
    else:
        print(det)
    return 0


def _cmd_table_build(args) -> int:
    write_sphere_table(single_block(_from_flags(ExperimentConfig, args), args.snr)[2], args.out)
    return 0


def _cmd_llr(args) -> int:
    cfg = _from_flags(ExperimentConfig, args)
    if cfg.modulation != "qam4":
        raise ConfigError("--mod must be qam4 for soft outputs")
    y = np.asarray(args.y, dtype=np.int8)
    cb, ws, table = single_block(cfg, args.snr, y)
    candidates = assemble_list(y, table)
    rows = [dict(zip(LLR_COLUMNS, (user, *compute_llrs(y, candidates, cb, ws, user))))
            for user in range(cfg.users)]
    write_rows(rows, LLR_COLUMNS, args.out, args.fmt)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obdk",
        description="One-bit MIMO detection experiments (SNR in dB of 1/sigma^2 per user)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag left out sets nothing, so the config it fills keeps its default.
    command = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("ser", help="symbol-error-rate sweep with paired noise")
    _add_experiment_args(p, run_ser_experiment)
    p.add_argument("--detectors", type=_list_of(str, "names"),
                   help="comma-separated subset of " + ",".join(DETECTOR_NAMES))
    _add_sphere_args(p)

    p = command("sep", help="list-miss rate, loss rate, and analytic bound")
    _add_experiment_args(p, run_sep_experiment)
    _add_sphere_args(p)

    p = command("tradeoff", help="relative SER vs relative complexity sweep")
    _add_experiment_args(p, run_tradeoff_sweep)
    p.add_argument("--ns", dest="n_sub", metavar="NS", type=int, required=True,
                   help="sphere sub-vector dimension")
    p.add_argument("--list-sizes", type=_list_of(int, "integers"), required=True,
                   help="comma-separated list sizes to sweep")
    p.add_argument("--td", dest="time_slots", metavar="TD", type=int,
                   help="detection slots per coherence block")

    p = command("bound", help="channel-averaged analytic list-miss bound")
    _add_experiment_args(p, run_bound_sweep, draws=False)
    _add_sphere_args(p)

    p = command("complexity", help="real-multiplication counts per detector")
    p.add_argument("--detector", choices=COMPLEXITY_DETECTORS, required=True)
    p.add_argument("-U", "--users", type=int, required=True)
    p.add_argument("-N", "--antennas", type=int, required=True)
    p.add_argument("-K", "--codebook-size", type=int, required=True)
    p.add_argument("--td", dest="time_slots", metavar="TD", type=int, required=True,
                   help="detection slots per coherence block")
    _add_sphere_args(p)
    p.set_defaults(func=_cmd_complexity)

    p = command("table-build", help="write a sphere-table binary for one seeded channel")
    _add_block_args(p, _cmd_table_build)
    p.add_argument("--out", required=True, help="output path for the table binary")

    p = command("llr", help="per-user soft outputs for one observation")
    _add_block_args(p, _cmd_llr)
    p.add_argument("--y", type=_sign_list, required=True,
                   help="comma-separated +/-1 observation of length 2N")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

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
