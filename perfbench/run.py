#!/usr/bin/env python3
"""The repo benchmark: builds shredder_perfbench from source, runs one
workload, checks its report and prints the result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--workload all runs every workload of BENCHMARK.json in turn and ends with
one JSON line mapping each workload to its result object. Any other name
goes to shredder_perfbench, which also knows workloads BENCHMARK.json does
not gate (see README.md).

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); reports,
provenance and spans go to its results/ directory. Stdout carries a
human-readable table followed, as its last line, by one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Exit status: 0 when every correctness gate held; 1 when a gate failed
(the result line still reports correct=false); 2 when the benchmark could
not be built or run (no result line).
"""

import argparse
import fcntl
import glob
import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(Exception):
    """The benchmark could not be built or run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    for group in ("end_to_end", "per_layer", "workloads"):
        for entry in spec.get(group, []):
            if not NAME_RE.match(entry["name"]):
                raise BenchError(f"invalid {group} name {entry['name']!r}")
    return spec


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target",
                      "shredder_perfbench", "-j", jobs])
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as e:
                if cmd[1] == "-S":  # a failed configure must not stick
                    cache = os.path.join(bdir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                raise BenchError(f"build failed: {' '.join(cmd)}: {e}")
    return os.path.join(bdir, "shredder_perfbench")


def git_state(root):
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(root):
            return "unknown", None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, flags


def compiler_info(bdir):
    """Compiler id + version and build type from the CMake build tree."""
    compiler, build_type = "unknown", "unknown"
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid:
            compiler = cid.group(1) + (" " + ver.group(1) if ver else "")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
        if m:
            build_type = m.group(1)
    return compiler, build_type


def provenance(root, bdir, seed):
    sha, dirty = git_state(root)
    model, flags = cpu_info()
    compiler, build_type = compiler_info(bdir)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "isa": {f: f in flags for f in ("sha_ni", "avx2", "avx512f")},
        "compiler": compiler,
        "build_type": build_type,
        "seed": seed,
    }


def result_line(report, spec, trace):
    """The result object: every end-to-end metric (trace 0) or
    every per-layer metric (trace 1) of the spec, from the report."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in group:
        got = report["metrics"].get(entry["name"])
        if got is None:
            raise BenchError(f"report lacks metric {entry['name']}")
        if got["unit"] != entry["unit"]:
            raise BenchError(f"metric {entry['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    attempted = int(report["attempted"])
    if attempted < 1:
        raise BenchError("report attempted no operation")
    return {
        "correct": bool(report["correct"]),
        "attempted": attempted,
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def format_table(report, prov):
    """Human-readable lines: every reported metric by name and unit, with
    its sample count and quartiles where it is a median over samples."""
    lines = [f"perfbench {report['workload']} seed={report['seed']} "
             f"trace={int(report['trace'])} reps={report['reps']}",
             "provenance: " + json.dumps(prov, sort_keys=True)]
    for name, m in report["metrics"].items():
        line = f"  {name:<30} {m['value']:>16.6g} {m['unit']}"
        s = report["samples"].get(name)
        if s:
            line += f"  (median of n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g}"
            if s["tail_level"] is not None:
                line += f", p{s['tail_level']:g}={s['tail_value']:.6g}"
            line += ")"
        lines.append(line)
    for name, g in report["gates"].items():
        status = "ok" if g["failures"] == 0 else f"FAILED {g['failures']}"
        lines.append(f"  gate {name:<28} {g['checks']:>6} checks  {status}")
    lines += [f"  note: {n}" for n in report["notes"]]
    lines += [f"  failure: {f}" for f in report["failures"]]
    return lines


def run_workload(spec, exe, bdir, workload, args):
    """Runs one workload; prints its table; returns its result object."""
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise BenchError(f"shredder_perfbench exited {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        result = result_line(report, spec, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        raise BenchError(f"malformed report from shredder_perfbench: {e}")
    prov = provenance(ROOT, bdir, args.seed)
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": prov, "wall_s": time.monotonic() - started,
                   "report": report, "result": result}, f, indent=1)

    for line in format_table(report, prov):
        print(line, flush=True)
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir(ROOT)
    exe = build(bdir)
    if args.workload != "all":
        result = run_workload(spec, exe, bdir, args.workload, args)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    results = {w: run_workload(spec, exe, bdir, w, args) for w in names}
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
