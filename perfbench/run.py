"""obdk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an obdk checkout. ``NAME`` is a workload of
``perfbench/workloads.json`` or ``all``. The seed picks the inputs from
a pool of seeds with stored reference outputs, so the same seed gives the
same inputs and every output is checked. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures per-layer metrics by tracing
calls into obdk's modules from outside. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Human-readable lines (run environment, metrics with sample counts,
failed_frac) come before it, and ``.perfbench_out/`` receives the full
result and, when tracing, the spans.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import env


def parse_args(argv, names) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args, spec) -> None:
    import obdk

    env.check_import(obdk)
    import measure

    info = env.record(args.seed, spec)
    print("env " + json.dumps(info))
    run = (measure.run_traced if args.trace else measure.run_untraced)(
        args.workload, spec, args.seed, args.seconds)
    tally = run["tally"]
    for name, (value, unit) in {**run["metrics"], **run.get("reported", {})}.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(f"{args.workload} samples {json.dumps(run['samples'])}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"{args.workload} failed_frac = {failed_frac!r} ratio "
          f"({tally.failed} of {tally.attempted} checked operations)")
    if args.trace:
        print(f"{args.workload} traced output identical to untraced: {run['identical']}")
        if run["absent"]:
            print(f"{args.workload} absent functions: {', '.join(run['absent'])}")

    env.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "env": info, "failed_frac": failed_frac,
            **{k: v for k, v in run.items() if k not in ("tally", "spans")},
            "attempted": tally.attempted, "failed": tally.failed}
    with open(env.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    if args.trace:
        with open(env.OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": run["spans"]}, fh, separators=(",", ":"))
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, run["metrics"]))


def run_all(args, spec) -> int:
    """Every workload in its own process; prints each one's lines, then a
    combined result line with metrics named ``<workload>.<metric>``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=env.ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, m in result["metrics"].items():
            metrics[f"{name}.{k}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    spec = env.load_spec()
    args = parse_args(argv, spec["workloads"])
    env.prepare(spec["blas_threads"])
    if args.workload == "all":
        return run_all(args, spec)
    run_one(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
