#!/usr/bin/env python3
"""The benchmark's own tests: run every workload once at its tiny size.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it asserts that every metric
BENCHMARK.json names appears exactly once with its unit and a finite value,
that the layers the workload runs read non-zero, that no check failed, and
that the traced run's spans nest (self time >= 0, every child inside its
parent on the same thread). A run with --corrupt must report failures.
Prints every broken assertion and exits 1 if there was any.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_build" / "perfbench" / "work"

# Per-layer metrics that must be non-zero on each workload: the layers it runs.
NONZERO = {
    "sedov_e11m12": ["softfloat.bigfloat_ns", "runtime.op2_ns", "runtime.ops", "hydro.riemann_s",
                     "hydro.riemann_ops", "hydro.recon_s", "hydro.update_s", "hydro.prim_s",
                     "hydro.step_s", "amr.guard_s", "amr.regrid_s", "amr.leaves",
                     "bench.native_s", "bench.spans"],
    "search_bubble": ["softfloat.fast_ns", "runtime.op2_batch_ns_per_el", "runtime.ops",
                      "incomp.advect_s", "incomp.advect_ops", "incomp.diffuse_s",
                      "search.evals", "search.eval_s", "search.reference_s", "search.driver_s",
                      "bench.native_s", "bench.spans"],
    "live_sod_e8m12": ["softfloat.simd_ns_per_el", "runtime.trunc_array_ns_per_el",
                       "runtime.counters_us", "runtime.region_profiles_us", "hydro.riemann_s",
                       "hydro.step_s", "amr.guard_s", "trace.events", "trace.bytes",
                       "trace.stop_s", "telemetry.scrapes", "telemetry.metrics_ms",
                       "telemetry.profile_ms", "telemetry.report_ms", "telemetry.report_bytes",
                       "bench.native_s", "bench.spans"],
}

SEED = 7
failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}")
    return cond


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if not expect(proc.returncode == 0, f"{' '.join(cmd[1:])} exited {proc.returncode}"):
        return None, ""
    last = proc.stdout.splitlines()[-1]

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        expect(len(keys) == len(set(keys)), f"{workload}: duplicate keys {keys}")
        return dict(pairs)

    return json.loads(last, object_pairs_hook=no_duplicates), proc.stdout


def check_metrics(workload, trace, result, stdout):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True,
           f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    expect("failed_share" in stdout, f"{workload}: failed_share not printed")
    specs = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in specs],
           f"{workload}: metric names differ from BENCHMARK.json")
    for m in specs:
        got = metrics.get(m["name"])
        if not expect(got is not None, f"{workload}: {m['name']} missing"):
            continue
        expect(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{workload}: {m['name']} value {got['value']}")
        if not trace:
            expect(got["value"] != 0, f"{workload}: end-to-end {m['name']} is 0")
    if trace:
        for name in NONZERO[workload]:
            expect(metrics[name]["value"] > 0, f"{workload}: layer metric {name} reads 0")


def check_spans(workload):
    path = WORK / f"spans-{workload}-{SEED}.json"
    if not expect(path.is_file(), f"{workload}: no spans file {path}"):
        return
    spans = json.loads(path.read_text())
    expect(len(spans) > 0, f"{workload}: no spans recorded")
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        expect(s["end"] >= s["start"], f"{workload}: span {s['id']} ends before it starts")
        expect(s["self"] >= -1e-9, f"{workload}: span {s['id']} ({s['name']}) self {s['self']}")
        if s["parent"] < 0:
            continue
        p = by_id.get(s["parent"])
        if expect(p is not None, f"{workload}: span {s['id']} has unknown parent"):
            expect(p["thread"] == s["thread"] and p["start"] <= s["start"]
                   and s["end"] <= p["end"],
                   f"{workload}: span {s['id']} ({s['name']}) not inside parent {p['id']}")


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        print(f"== {workload}")
        for trace in (0, 1):
            result, stdout = run(workload, trace)
            if result is not None:
                check_metrics(workload, trace, result, stdout)
        check_spans(workload)
        result, _ = run(workload, 0, corrupt=True)
        if result is not None:
            expect(result["failed"] > 0 and result["correct"] is False,
                   f"{workload}: a corrupted observable did not count as a failed operation")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
