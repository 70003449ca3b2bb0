"""Single-observation detector latency, served to ``run.py`` one pass at a time.

    python3 perfbench/latency_probe.py SEED PASS_OBS

Prepares the ``detect_system`` block of ``workloads.json`` for SEED, then
for every line read on standard input runs one pass of PASS_OBS
observations through detect_osd and detect_mwd and writes one JSON line:
the per-call latencies in ns, those of the paired reference-kernel calls,
and the pass's check records. CLI workloads use it so that their latency
passes can follow every unit without the large block counting toward the
workload process's peak memory.
"""

import json
import sys

import env


def main() -> None:
    spec = env.load_spec()
    env.prepare(spec["blas_threads"])
    import obdk

    env.check_import(obdk)
    import workload

    seed, pass_obs = int(sys.argv[1]), int(sys.argv[2])
    block = workload.prepare_block(spec["detect_system"], seed)
    workload.detect_pass(block, seed, 1)  # lazy first-call cost, untimed
    print(json.dumps({"ready": True}), flush=True)
    for _ in sys.stdin:
        # The unit that ran meanwhile evicted the block from the caches; one
        # untimed observation reloads it, so the pass times steady-state calls.
        workload.detect_pass(block, seed, 1)
        r = workload.detect_pass(block, seed, pass_obs)
        print(json.dumps({"osd_ns": r.osd_ns, "mwd_ns": r.mwd_ns, "kernel_ns": r.kernel_ns,
                          "records": r.records}), flush=True)


if __name__ == "__main__":
    main()
