import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parent.parent / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)


def _run(sha, seed, rate, failed=0, src="abc", workload="ser-k16"):
    return {"workload": workload, "failed": failed, "attempted": 100,
            "env": {"git_sha": sha, "src_sha256": src, "seed": seed},
            "metrics": {"obs_per_s": [rate, "1/s"], "obs_per_s_median": [0.0, "1/s"]}}


def test_summary_per_commit_and_workload():
    runs = [_run("a" * 40, seed, rate, failed)
            for seed, rate, failed in ((2, 30.0, 1), (0, 10.0, 0), (1, 20.0, 0), (3, 40.0, 0))]
    runs.append(_run("b" * 40, 5, 7.0, workload="sep-k16"))
    summary = bench_file.summarise(runs, ["obs_per_s", "setup_s"])
    assert summary["a" * 40] == {
        "env": {"git_sha": "a" * 40, "src_sha256": "abc"},
        "workloads": {"ser-k16": {
            "seeds": [0, 1, 2, 3],
            "metrics": {"obs_per_s": {"unit": "1/s", "median": 25.0, "q1": 17.5, "q3": 32.5}},
            "failed_frac": 1 / 400}}}
    one = summary["b" * 40]["workloads"]["sep-k16"]["metrics"]["obs_per_s"]
    assert one == {"unit": "1/s", "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_runs_of_one_commit_with_other_sources_are_refused():
    with pytest.raises(ValueError, match="differ in their environment"):
        bench_file.summarise([_run("a" * 40, 0, 1.0), _run("a" * 40, 1, 1.0, src="edited")],
                             ["obs_per_s"])
    with pytest.raises(ValueError, match="names no commit"):
        bench_file.summarise([_run(None, 0, 1.0)], ["obs_per_s"])
