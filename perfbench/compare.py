#!/usr/bin/env python3
"""Summarise or compare sets of saved benchmark results.

    python3 perfbench/compare.py RUNS_A            # medians and spreads of one set
    python3 perfbench/compare.py RUNS_A RUNS_B     # B against A, per workload

A set is a directory of files written by `run.py --save DIR`. For every
workload and metric it prints the median, the quartile spread
(q3 - q1) / median over the set's runs and the metric's bound from
BENCHMARK.json. Given two sets it also prints how much worse B's median is
than A's and exits 1 when that exceeds the bound.

Results are only comparable from the same machine and build: every run of a
workload must agree on the CPU, SIMD path, compiler, build type and thread
counts, or the comparison is refused (exit 2). Commits and seeds may differ.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MACHINE = ("cpu", "simd_path", "compiler", "build_type", "omp_threads", "bench_threads")
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["meta"]["workload"], record["meta"]["trace"])
        runs.setdefault(key, []).append(record)
    return runs


def check_machine(sets):
    """Refuse when any two runs of one workload differ in machine or build."""
    seen = {}
    for runs in sets:
        for (workload, _), records in runs.items():
            for r in records:
                machine = {k: r["meta"].get(k) for k in MACHINE}
                ref = seen.setdefault(workload, machine)
                if machine != ref:
                    diff = {k: (ref[k], machine[k]) for k in MACHINE if ref[k] != machine[k]}
                    print(f"refused: {workload} results come from different machines or "
                          f"builds: {diff}")
                    sys.exit(2)


def summary(records, name):
    values = [r["result"]["metrics"][name]["value"] for r in records
              if name in r["result"]["metrics"]]
    med = statistics.median(values)
    spread = 0.0
    if len(values) >= 2 and med != 0:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / abs(med)
    return med, spread, len(values)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    sets = [load(d) for d in argv[1:]]
    check_machine(sets)
    worse_than_bound = False
    for key in sorted(sets[0]):
        workload, trace = key
        records = sets[0][key]
        failed = sum(r["result"]["failed"] for r in records)
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, {len(records)} runs, "
              f"{failed} failed operations)")
        for name in records[0]["result"]["metrics"]:
            spec = METRICS.get(name, {})
            bound = spec.get("bound")
            med, spread, n = summary(records, name)
            line = f"  {name:36s} median {med:14.6g}  spread {100 * spread:6.2f}%"
            if bound is not None:
                line += f"  bound {100 * bound:5.1f}%"
                if spread > bound / 3:
                    line += "  WIDE"
            if len(sets) == 2 and key in sets[1]:
                med_b, _, _ = summary(sets[1][key], name)
                sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
                worse = sign * (med_b - med) / abs(med) if med != 0 else 0.0
                line += f"  B {med_b:14.6g}  worse by {100 * worse:7.2f}%"
                if bound is not None and worse > bound:
                    line += "  REGRESSION"
                    worse_than_bound = True
            print(line)
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
