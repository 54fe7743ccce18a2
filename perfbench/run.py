#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload sedov_e11m12 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the RAPTOR libraries from src/) in
.bench_build/perfbench on first use, fixes the thread environment for the
workload, runs the raptor_perfbench binary and passes its output through.
The last line of standard output is the JSON result: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones. A '# meta' line
before it records the machine, build, threads, commit and seed.

--save DIR also writes the meta and result as one JSON file per run, the
input of perfbench/compare.py. --tiny and --corrupt are the self-test's
modes (perfbench/selftest.py).
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "raptor_perfbench"

# OpenMP team size per workload. The benchmark sets it (and a passive wait
# policy) itself: an inherited active policy made the first 2-thread Sod
# repetition ~5x slower than later ones.
OMP_THREADS = {"sedov_e11m12": 1, "search_bubble": 1, "live_sod_e8m12": 2}

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no RAPTOR source tree at {ROOT} (expected CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "raptor_perfbench", "-j4"])
    with open(log, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=850).returncode
            if rc != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def commit_id():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: identify the sources by content.
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def workload_env(workload):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_")) and k != "RAPTOR_SIMD"}
    env["OMP_NUM_THREADS"] = str(OMP_THREADS[workload])
    env["OMP_WAIT_POLICY"] = "passive"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OMP_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes (self-test)")
    ap.add_argument("--corrupt", action="store_true", help="perturb one checksum (self-test)")
    ap.add_argument("--save", metavar="DIR", help="also write meta + result JSON into DIR")
    args = ap.parse_args()

    build()
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    spans = work / f"spans-{args.workload}-{args.seed}.json"
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}", f"--workdir={work}",
           f"--commit={commit_id()}"]
    if args.trace:
        cmd.append(f"--spans={spans}")
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=workload_env(args.workload),
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("the last line is not a result object")
    sys.stdout.write(proc.stdout)

    if args.save:
        meta = next(json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta "))
        out = pathlib.Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")


if __name__ == "__main__":
    main()
