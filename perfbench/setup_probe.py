"""Set-up cost of one fresh process, printed as a JSON line.

    python3 perfbench/setup_probe.py WORKLOAD

Times ``import obdk`` (with ``obdk.cli``) and then the first call of the
workload's kind on a tiny input, which pays any lazy first-call cost, in
CPU time of the process like every other duration of the benchmark.
Run from the root of a checkout; ``run.py`` starts several of these and
reports the median.
"""

import json
import sys
import time

import env


def main() -> None:
    spec = env.load_spec()
    env.prepare(spec["blas_threads"])
    w = spec["workloads"][sys.argv[1]]
    t0 = time.process_time()
    import obdk
    import obdk.cli
    t1 = time.process_time()
    env.check_import(obdk)
    import workload

    workload.first_call(w)
    t2 = time.process_time()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))


if __name__ == "__main__":
    main()
