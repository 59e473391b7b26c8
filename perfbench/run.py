#!/usr/bin/env python3
"""Build and run the simulator benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is built from the repository's sources into the directory
named by CARGO_TARGET_DIR (default .bench_build), relative to the
repository root. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join("perfbench", "refs")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configure once, then build only the benchmark and its library."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_bench(exe, args, capture=False):
    cmd = [exe] + args
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    return subprocess.run(cmd, cwd=ROOT)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(exe):
    """Tiny run of every workload, traced and untraced; non-zero on any
    missing metric, wrong unit, failed point or undetected mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            proc = run_bench(exe, ["--workload", workload, "--seed", "1",
                                   "--seconds", "0", "--trace", trace,
                                   "--size", "tiny", "--refs", REFS],
                             capture=True)
            result = last_json(proc.stdout)
            tag = "%s trace %s" % (workload, trace)
            if proc.returncode != 0 or result is None:
                problems.append("%s: exit %d" % (tag, proc.returncode))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d failed point(s)" %
                                (tag, result["failed"]))
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: missing %s" % (tag, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, want %s" %
                                    (tag, m["name"], got["unit"], m["unit"]))
            print("self-test %-22s %d metrics checked" % (tag, len(wanted)))

        # A tampered reference must be reported as a failed point.
        bad_refs = os.path.join(build_dir(), "self-test-refs")
        shutil.rmtree(bad_refs, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, REFS), bad_refs)
        path = os.path.join(bad_refs, "%s-tiny-s1.txt" % workload)
        with open(path) as f:
            lines = f.read().splitlines()
        point, digest = lines[0].split()
        lines[0] = "%s %s" % (point, "0" * len(digest))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        proc = run_bench(exe, ["--workload", workload, "--seed", "1",
                               "--seconds", "0", "--trace", "0",
                               "--size", "tiny", "--refs", bad_refs],
                         capture=True)
        result = last_json(proc.stdout)
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s: tampered reference not detected" % workload)
        shutil.rmtree(bad_refs, ignore_errors=True)

    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--write-refs", action="store_true",
                        help="record this seed's digests as the reference")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(exe)

    bench_args = ["--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", args.trace,
                  "--size", args.size, "--refs", REFS]
    if args.write_refs:
        bench_args.append("--write-refs")
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans-%s-s%s.json" %
                             (args.workload, args.seed))
        bench_args += ["--spans", spans]
    sys.stdout.flush()
    return run_bench(exe, bench_args).returncode


if __name__ == "__main__":
    sys.exit(main())
