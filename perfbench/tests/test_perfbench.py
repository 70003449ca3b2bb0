"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests

Run from the root of an obdk checkout.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402


def test_self_time_of_synthetic_nested_calls():
    # a [0, 100] calls b [10, 40] and c [50, 80]; c calls d [55, 65].
    spans = [
        ["m.a", 0, 100, -1],
        ["m.b", 10, 40, 0],
        ["m.c", 50, 80, 0],
        ["n.d", 55, 65, 2],
        ["m.b", 200, 205, -1],
    ]
    per_fn = tracing.self_times(spans)
    assert {k: round(v["self_s"] * 1e9) for k, v in per_fn.items()} == {
        "m.a": 40, "m.b": 35, "m.c": 20, "n.d": 10}
    assert {k: v["calls"] for k, v in per_fn.items()} == {"m.a": 1, "m.b": 2, "m.c": 1, "n.d": 1}
    layers = tracing.by_layer(per_fn)
    assert round(layers["m"]["self_s"] * 1e9) == 95 and layers["m"]["calls"] == 4
    assert round(layers["n"]["self_s"] * 1e9) == 10 and layers["n"]["calls"] == 1


def test_recorded_spans_nest_and_sum_to_the_outer_call():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "m.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "m.outer")
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    per_fn = tracing.self_times(tracer.spans)
    total = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    assert abs(per_fn["m.outer"]["self_s"] + per_fn["m.inner"]["self_s"] - total) < 1e-12


def test_wrapper_finds_function_bound_in_another_module():
    import obdk
    import obdk.detectors as detectors
    import obdk.experiments as experiments
    from obdk.analysis import SepBoundInputs

    original = detectors.build_sphere_table
    assert experiments.build_sphere_table is original  # bound by "from .detectors import"
    original_build = SepBoundInputs.__dict__["build"]
    tracer = tracing.Tracer(sizes={"detectors.build_sphere_table": lambda t: t.indices.nbytes})
    with tracer:
        assert experiments.build_sphere_table is not original
        assert experiments.build_sphere_table is detectors.build_sphere_table
        assert obdk.build_sphere_table is detectors.build_sphere_table
        assert SepBoundInputs.__dict__["build"] is not original_build
        cfg = experiments.ExperimentConfig(users=1, antennas=2, modulation="qam4",
                                           n_sub=2, list_size=1)
        _, h_entries, cb = experiments._channel_setup(cfg, 0)
        ws = obdk.compute_weights_approx(obdk.RealChannel(h_entries, 1.0), cb.symbols)
        table = experiments.build_sphere_table(cb, ws, obdk.SphereConfig(2, 1))
        SepBoundInputs.build(cb, ws, obdk.SphereConfig(2, 1))
    assert experiments.build_sphere_table is original
    assert SepBoundInputs.__dict__["build"] is original_build
    names = [s[0] for s in tracer.spans]
    assert "detectors.build_sphere_table" in names
    # the size of what the call returned is summed outside its span.
    assert tracer.totals["detectors.build_sphere_table"] == (
        names.count("detectors.build_sphere_table") * table.indices.nbytes)
    assert "analysis.SepBoundInputs.build" in names
    # build_sphere_table's own call to distance_affine is a child span.
    table_span = names.index("detectors.build_sphere_table")
    assert any(s[0] == "detectors.distance_affine" and s[3] == table_span for s in tracer.spans)
    # private helpers are not wrapped: their time is their caller's self time.
    assert not any(n.split(".")[-1].startswith("_") for n in names)


ROWS = """detector,snr_db,channels,trials,errors,rate,mean_list_len,distance_evals,seed
mld,0.0,1,10,3,0.3,16.0,160,7
osd,0.0,1,10,4,0.4,5.5,55,7
"""


def test_matching_records_pass_and_float_reorderings_are_tolerated():
    ref = check.parse_csv(ROWS)
    got = check.parse_csv(ROWS)
    got[1]["mean_list_len"] = 5.5 * (1 + 1e-12)
    assert check.compare(got, ref) == (2, 0)


def test_perturbed_record_fails():
    ref = check.parse_csv(ROWS)
    for field, value in [("errors", 5), ("distance_evals", 56), ("rate", 0.4 * (1 + 1e-6)),
                         ("detector", "mwd")]:
        got = check.parse_csv(ROWS)
        got[1][field] = value
        attempted, failed = check.compare(got, ref)
        assert (attempted, failed) == (2, 1), field
        assert failed / attempted > 0
    assert check.compare(check.parse_csv(ROWS)[:1], ref) == (2, 1)


def test_detect_chunks_compare_integers_exactly():
    outcomes = [(k, k, 3, 1.5 * k, k, 1.25 * k) for k in range(250)]
    ref = check.detect_records(outcomes)
    assert [r["obs"] for r in ref] == [100, 100, 50]
    assert check.compare(check.detect_records(outcomes), ref) == (250, 0)
    perturbed = list(outcomes)
    perturbed[120] = (120, 121, 3, 180.0, 120, 150.0)
    assert check.compare(check.detect_records(perturbed), ref) == (250, 100)


def test_reference_pool_covers_every_workload():
    spec = json.loads((BENCH / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    for name, w in spec["workloads"].items():
        ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
        assert len(ref["seeds"]) == spec["reference_pool"]
        assert all(seed["pass"] for seed in ref["seeds"])
        assert all(seed.get("unit") for seed in ref["seeds"]) == (w["kind"] == "cli")


def test_timings_scale_by_the_reference_kernel():
    import measure
    import workload

    # The kernel took 4.4 us against a nominal 2.2 us: the host ran at half
    # speed, so times halve and rates double.
    assert measure.speed_factor([4000, 4400, 5000], 2.2) == 0.5
    arrays = workload.reference_arrays(8, 4)
    assert workload.reference_arrays(8, 4) is arrays
    assert [a.dtype.name for a in arrays] == ["int8", "float64", "float64"]
    assert 0 <= workload.reference_kernel(arrays, [1.0, -1.0, 1.0, -1.0]) < 8
