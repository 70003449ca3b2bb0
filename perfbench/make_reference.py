"""Regenerate the stored reference outputs of the benchmark.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of an obdk checkout at the commit whose outputs are
the reference. For every seed of the pool it writes the records a unit
produces: the chunked outcomes of one latency pass over the
``detect_system`` block and, for CLI workloads, the CSV rows of one
``cli_main`` call, to ``perfbench/reference/<workload>.json``.
"""

import json
import sys

import env


def main(names) -> None:
    spec = env.load_spec()
    env.prepare(spec["blas_threads"])
    import obdk

    env.check_import(obdk)
    import workload

    for name in names or spec["workloads"]:
        w = spec["workloads"][name]
        seeds = []
        for s in range(spec["reference_pool"]):
            block = workload.prepare_block(spec["detect_system"], s)
            seeds.append({"pass": workload.detect_pass(block, s, w["pass_obs"]).records})
            if w["kind"] == "cli":
                seeds[-1]["unit"] = workload.run_cli(w["argv"], s).records
        out = {"workload": name, "git_sha": env.git_sha(), "src_sha256": env.src_sha256(),
               "seeds": seeds}
        path = env.BENCH_DIR / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path.relative_to(env.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
