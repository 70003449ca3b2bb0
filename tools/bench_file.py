"""Summarise benchmark runs into a committed ``BENCH_<short-sha>.json``.

Usage: python tools/bench_file.py [RUN_DIR]

Reads every ``<workload>-seed<n>-trace0.json`` that ``perfbench/run.py``
wrote to RUN_DIR (default: ``.perfbench_out`` of this checkout) and, for
each commit they were run at, writes ``BENCH_<short-sha>.json`` at the
root of this checkout: per workload, the seeds run and, for each
end-to-end metric that ``BENCHMARK.json`` gates, its unit, median and
quartiles over the runs; ``failed_frac`` as failed over attempted
operations summed over the runs; and the run-environment block, less the
seed. Runs of one commit must share that block, which names the source
digest, so runs of edited working trees are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), numpy's default linear rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(runs: list, gated: list) -> dict:
    """{git sha: BENCH record} of the parsed trace-0 results ``runs``."""
    by_sha = {}
    for run in runs:
        env = {k: v for k, v in run["env"].items() if k != "seed"}
        sha = env["git_sha"]
        if sha is None:
            raise ValueError("a run outside a git clone names no commit")
        record = by_sha.setdefault(sha, {"env": env, "workloads": {}})
        if record["env"] != env:
            raise ValueError(f"runs at {sha[:7]} differ in their environment: "
                             f"{record['env']} against {env}")
        record["workloads"].setdefault(run["workload"], []).append(run)
    for record in by_sha.values():
        for name, group in record["workloads"].items():
            group.sort(key=lambda run: run["env"]["seed"])
            metrics = {}
            for metric in gated:
                values = [run["metrics"][metric][0] for run in group if metric in run["metrics"]]
                if values:
                    q1, median, q3 = quartiles(values)
                    metrics[metric] = {"unit": group[0]["metrics"][metric][1],
                                       "median": median, "q1": q1, "q3": q3}
            failed = sum(run["failed"] for run in group)
            attempted = sum(run["attempted"] for run in group)
            record["workloads"][name] = {
                "seeds": [run["env"]["seed"] for run in group],
                "metrics": metrics,
                "failed_frac": failed / max(attempted, 1),
            }
    return by_sha


def main(argv: list) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    run_dir = Path(argv[0]) if argv else REPO / ".perfbench_out"
    paths = sorted(run_dir.glob("*-seed*-trace0.json"))
    if not paths:
        print(f"no *-seed*-trace0.json runs in {run_dir}", file=sys.stderr)
        return 1
    runs = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        gated = [metric["name"] for metric in json.load(fh)["end_to_end"]]
    for sha, record in summarise(runs, gated).items():
        out = REPO / f"BENCH_{sha[:7]}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        counts = (f"{name} ({len(group['seeds'])} runs)"
                  for name, group in record["workloads"].items())
        print(f"{out.name}: {', '.join(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
