"""One benchmark run of one workload: the untraced end-to-end run and the
traced per-layer run.

Imported only after ``env.prepare`` has pinned the BLAS threads and put
the checkout's ``src`` on the path.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import obdk

import check
import env
import tracing
import workload

MODULES = ("channel", "codebook", "weights", "detectors", "analysis", "experiments", "cli")
TABLE_BUILD = "detectors.build_sphere_table"
HOT_FUNCTIONS = (
    TABLE_BUILD,
    "detectors.distance_affine",
    "detectors.assemble_list",
    "detectors.detect_osd",
    "detectors.detect_mwd",
    "analysis.sep_bound",
    "analysis.SepBoundInputs.build",
    "channel.quantize_sign",
    "weights.compute_weights_approx",
)


def load_reference(name: str) -> list[dict]:
    """Reference records per pool seed, made by ``make_reference.py``."""
    path = env.BENCH_DIR / "reference" / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def timed_units(seconds: float):
    """Yield unit indices while the next unit, at the mean unit length so
    far, still ends within ``seconds`` of wall time; always at least one."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i and elapsed * (i + 1) / i > seconds:
            return
        yield i
        i += 1


class Tally:
    """Checked operations: attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, records, ref, twin_identical: bool = True) -> None:
        attempted, failed = check.compare(records, ref)
        self.attempted += attempted
        self.failed += failed if twin_identical else attempted


def setup_probe(name: str) -> float:
    """Import plus first-call seconds of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), name],
        cwd=env.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["first_call_s"]


class LatencyProbe:
    """A ``latency_probe.py`` child that runs one detect pass per request."""

    def __init__(self, seed: int, pass_obs: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(env.BENCH_DIR / "latency_probe.py"), str(seed), str(pass_obs)],
            cwd=env.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"latency probe exited with {self.proc.wait()}")
        return json.loads(line)

    def run_pass(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _unit(w: dict, spec: dict, seed: int):
    """Run one traced-run unit; returns (records, observations per second,
    exact output)."""
    if w["kind"] == "cli":
        r = workload.run_cli(w["argv"], seed)
        return r.records, workload.cli_obs(w["argv"]) / r.seconds, r.text
    block = workload.prepare_block(spec["detect_system"], seed)
    r = workload.detect_pass(block, seed, w["pass_obs"])
    return r.records, len(r.outcomes) / r.seconds, r.outcomes


def _percentiles_us(samples_ns) -> tuple[float, float]:
    p50, p99 = np.percentile(np.asarray(samples_ns, dtype=np.float64), [50, 99])
    return float(p50) / 1e3, float(p99) / 1e3


def speed_factor(kernel_ns, kernel_us: float) -> float:
    """Normalised time per CPU time: ``kernel_us`` over the median CPU time
    of the run's reference-kernel calls. Times are multiplied by it and
    rates divided by it."""
    return kernel_us * 1e3 / statistics.median(kernel_ns)


def run_untraced(name: str, spec: dict, seed: int, seconds: float) -> dict:
    """End-to-end metrics, with the output check.

    Short units run back to back; every ``probe_every_s`` seconds of them
    come one latency pass (CLI workloads; on detect-k4096 every unit is a
    latency pass), one timed block preparation (detect-k4096) and one
    set-up probe, so that all metrics sample the same stretches of
    (shared, noisy) machine time. Every timing is then normalised to the
    host speed at which the reference kernel takes ``reference_kernel_us``,
    by the median of the reference-kernel calls that follow each latency
    pass observation (see ``workload``).
    """
    w = spec["workloads"][name]
    cli = w["kind"] == "cli"
    ref = load_reference(name)
    pool = len(ref)
    s0 = seed % pool
    tally = Tally()
    rates, setups, preps, osd_ns, mwd_ns, kernel_ns = [], [], [], [], [], []
    workload.first_call(w)  # lazy first-call cost, before timing
    probe = LatencyProbe(s0, w["pass_obs"]) if cli else None

    def prepare():
        t0 = workload.cpu_ns()
        block = workload.prepare_block(spec["detect_system"], s0)
        preps.append((workload.cpu_ns() - t0) / 1e9)
        return block

    def latency_pass():
        if cli:
            r = probe.run_pass()
        else:
            d = workload.detect_pass(block, s0, w["pass_obs"])
            rates.append(len(d.outcomes) / d.seconds)
            r = {"osd_ns": d.osd_ns, "mwd_ns": d.mwd_ns, "kernel_ns": d.kernel_ns,
                 "records": d.records}
        osd_ns.extend(r["osd_ns"])
        mwd_ns.extend(r["mwd_ns"])
        kernel_ns.extend(r["kernel_ns"])
        tally.add(r["records"], ref[s0]["pass"])

    try:
        gc.collect()
        block = None if cli else prepare()
        start = last_probe = time.perf_counter()
        for i in timed_units(seconds):
            if cli:
                s = (seed + i) % pool
                r = workload.run_cli(w["argv"], s)
                rates.append(workload.cli_obs(w["argv"]) / r.seconds)
                tally.add(r.records, ref[s]["unit"])
            else:
                latency_pass()
            if time.perf_counter() - last_probe >= spec["probe_every_s"]:
                if cli:
                    latency_pass()
                else:
                    block = None  # the new block replaces the old one, not joins it
                    block = prepare()
                setups.append(setup_probe(name))
                last_probe = time.perf_counter()
        # Top up to the sample count, but not far past the run length.
        while (len(osd_ns) < spec["latency_samples"]
               and time.perf_counter() - start < 1.2 * seconds):
            latency_pass()
    finally:
        if probe is not None:
            probe.close()
    while len(setups) < spec["setup_probes"]:
        setups.append(setup_probe(name))
    setup = statistics.median(setups) + (statistics.median(preps) if preps else 0.0)
    rate = float(np.percentile(rates, 100 * spec["rate_quantile"]))
    osd_p50, osd_p99 = _percentiles_us(osd_ns)
    mwd_p50, mwd_p99 = _percentiles_us(mwd_ns)
    kernel_p50, _ = _percentiles_us(kernel_ns)
    slow = speed_factor(kernel_ns, spec["reference_kernel_us"])
    metrics = {
        "obs_per_s": (rate / slow, "1/s"),
        "setup_s": (setup * slow, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "detect_osd_p50_us": (osd_p50 * slow, "us"),
        "detect_mwd_p50_us": (mwd_p50 * slow, "us"),
    }
    # Printed and saved, not in the result line: the median rate, beside
    # obs_per_s; the p99 latencies, whose run-to-run spread on a shared
    # host exceeds any bound BENCHMARK.json may set; and the CPU times as
    # measured, before normalisation, with the reference kernel's own.
    reported = {"obs_per_s_median": (statistics.median(rates) / slow, "1/s"),
                "detect_osd_p99_us": (osd_p99 * slow, "us"),
                "detect_mwd_p99_us": (mwd_p99 * slow, "us"),
                "obs_per_s_raw": (rate, "1/s"), "setup_s_raw": (setup, "s"),
                "detect_osd_p50_raw_us": (osd_p50, "us"),
                "detect_mwd_p50_raw_us": (mwd_p50, "us"),
                "reference_kernel_p50_raw_us": (kernel_p50, "us")}
    samples = {"obs_per_s": len(rates), "setup_s": len(setups), "block_preps": len(preps),
               "detect_osd": len(osd_ns), "detect_mwd": len(mwd_ns), "kernel": len(kernel_ns)}
    return {"metrics": metrics, "reported": reported, "samples": samples, "tally": tally,
            "rates": rates, "setups": setups, "preps": preps, "kernel_p50_us": kernel_p50}


def _present(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = sys.modules.get(f"obdk.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds as attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _computed_counts(w: dict, spec: dict, unit_records: list, table_bytes: float) -> dict:
    """Counts computed from the configuration and the result rows, plus
    the measured bytes per sphere table built."""
    cli = w["kind"] == "cli"
    system = workload.cli_system(w["argv"]) if cli else spec["detect_system"]
    users, antennas, ns, lsize = system["users"], system["antennas"], system["ns"], system["list_size"]
    k = obdk.make_constellation(system["mod"]).size ** users
    groups = 2 * antennas // ns
    if cli:
        slots = int(w["argv"][w["argv"].index("--trials") + 1])
        rows = [r for rs in unit_records for r in rs]
        evals = sum(r["distance_evals"] for r in rows) / len(unit_records)
        lens = [r["mean_list_len"] for r in rows if r["detector"] in ("osd", "sep")]
    else:
        slots = w["pass_obs"]
        evals = 0.0
        lens = [o[2] for outcomes in unit_records for o in outcomes]
    pre, det = obdk.complexity_model(
        obdk.ComplexityQuery("osd", users, antennas, k, slots, n_sub=ns, list_size=lsize))
    _, mld = obdk.complexity_model(obdk.ComplexityQuery("mld", users, antennas, k, slots))
    return {
        "detectors.table_scores": (groups * (1 << ns) * k, "count"),
        "detectors.table_bytes": (table_bytes, "bytes"),
        "experiments.distance_evals": (evals, "count"),
        "detectors.list_frac": (statistics.fmean(lens) / k, "ratio"),
        "model.osd_pre_mults": (pre, "count"),
        "model.osd_det_mults": (det, "count"),
        "model.mld_mults": (mld, "count"),
    }


def run_traced(name: str, spec: dict, seed: int, seconds: float) -> dict:
    """Per-layer metrics from alternating untraced and traced units on the
    same inputs; the traced unit's output must equal its twin's exactly."""
    w = spec["workloads"][name]
    ref = load_reference(name)
    pool = len(ref)
    tally = Tally()
    tracer = tracing.Tracer(sizes={TABLE_BUILD: _array_bytes})
    workload.first_call(w)  # lazy first-call cost, before timing
    gc.collect()
    plain_rates, traced_rates, outputs = [], [], []
    identical = True
    units = 0
    for i in timed_units(seconds):
        s = (seed + i) % pool if w["kind"] == "cli" else seed % pool
        key = "unit" if w["kind"] == "cli" else "pass"
        records, rate, exact = _unit(w, spec, s)
        plain_rates.append(rate)
        tally.add(records, ref[s][key])
        with tracer:
            t_records, t_rate, t_exact = _unit(w, spec, s)
        traced_rates.append(t_rate)
        identical &= t_exact == exact
        tally.add(t_records, ref[s][key], twin_identical=t_exact == exact)
        outputs.append(t_records if w["kind"] == "cli" else t_exact)
        units += 1
    per_function = tracing.self_times(tracer.spans)
    layers = tracing.by_layer(per_function)
    metrics = {}
    for module in MODULES:
        stats = layers.get(module, {"self_s": 0.0, "calls": 0})
        metrics[f"{module}.self_s"] = (stats["self_s"] / units, "s")
        metrics[f"{module}.calls"] = (stats["calls"] / units, "count")
    absent = [f for f in HOT_FUNCTIONS if not _present(f)]
    for fn in HOT_FUNCTIONS:
        stats = per_function.get(fn, {"self_s": 0.0, "calls": 0})
        metrics[f"{fn}.self_s"] = (stats["self_s"] / units, "s")
        metrics[f"{fn}.calls"] = (stats["calls"] / units, "count")
    builds = per_function.get(TABLE_BUILD, {"calls": 0})["calls"]
    table_bytes = tracer.totals.get(TABLE_BUILD, 0) / builds if builds else 0.0
    metrics.update(_computed_counts(w, spec, outputs, table_bytes))
    overhead = 1.0 - statistics.median(traced_rates) / statistics.median(plain_rates)
    metrics["tracing_overhead_frac"] = (overhead, "ratio")
    return {
        "metrics": metrics,
        "samples": {"units": units, "spans": len(tracer.spans)},
        "tally": tally,
        "absent": absent,
        "identical": identical,
        "spans": tracer.spans,
    }
