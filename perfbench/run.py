#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source, then runs it.

One workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload tune-fig10 --seed 1 --seconds 20 --trace 0

The last line of stdout is the result object; --trace 1 reports the
per-layer metrics instead of the end-to-end ones. Steadiness report (every
workload, ROUNDS times, alternating their order, one seed per round):

    python3 perfbench/run.py --steadiness 10 --seconds 20 --report perfbench/steadiness.txt

The build goes to .bench_build/ at the repository root, and so do the
binary's scratch files (socket, stores, access log, Chrome traces).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "alcop_perfbench")
OUT_DIR = ".bench_build/out"  # relative to ROOT: keeps the socket path short
WORKLOADS = ("tune-fig10", "compile-cold", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the alcop sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 and sha.stdout.strip() else "unknown"


def run_binary(workload, seed, seconds, trace, extra=(), sha="unknown"):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", OUT_DIR, "--sha", sha, *extra]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALCOP_")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(rounds, seconds, seed0, report_path, sha):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    lines = ["steadiness: %d rounds x %d workloads, %s s each, seeds %d..%d, sha %s"
             % (rounds, len(WORKLOADS), seconds, seed0, seed0 + rounds - 1, sha), ""]
    for r in range(rounds):
        seed = seed0 + r
        shift = r % len(WORKLOADS)
        order = WORKLOADS[shift:] + WORKLOADS[:shift]
        if r % 2:
            order = tuple(reversed(order))
        for workload in order:
            code, out = run_binary(workload, seed, seconds, 0, sha=sha)
            if code != 0 or not out:
                fail("%s seed %d exited with %d" % (workload, seed, code))
            result = json.loads(out[-1])
            provenance = next((l for l in out if l.startswith("provenance: ")), "provenance: {}")
            noise = json.loads(provenance[len("provenance: "):])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            row = "round %2d %-12s seed %3d attempted %8d failed %d steal %.4f/%.4f wall %.1f s " \
                  "cpu %.1f s  " % (r, workload, seed, result["attempted"], result["failed"],
                                    noise.get("steal_fraction_cpu", -1),
                                    noise.get("steal_fraction_all", -1),
                                    noise.get("wall_s", -1), noise.get("process_cpu_s", -1))
            row += " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())
            lines.append(row)
            print(row, flush=True)
    lines += ["", "%-12s %-20s %4s %12s %12s %12s %12s %12s %9s %6s %s"
              % ("workload", "metric", "n", "median", "q1", "q3", "min", "max", "iqr/med",
                 "bound", "verdict")]
    for workload in WORKLOADS:
        for name, vals in values[workload].items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            if name == "setup_s":
                verdict = "set-up (no spread gate)"
            elif spread <= bound / 3:
                verdict = "ok (< bound/3)"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "WIDE"
            lines.append("%-12s %-20s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %9.4f %6.3f %s"
                         % (workload, name, len(vals), med, q1, q3, min(vals), max(vals), spread,
                            bound, verdict))
    text = "\n".join(lines) + "\n"
    print(text[text.index("\nworkload") + 1:] if "\nworkload" in text else text)
    if report_path:
        with open(report_path, "w") as f:
            f.write(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size (self-test only; not a measurement)")
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="nudge every reference cycle count (self-test only)")
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS",
                        help="run every workload ROUNDS times and report the spreads")
    parser.add_argument("--report", help="steadiness mode: also write the report here")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload or --steadiness is required")

    build()
    sha = source_sha()
    if args.steadiness is not None:
        steadiness(args.steadiness, args.seconds, args.seed, args.report, sha)
        return 0
    extra = [flag for flag, on in (("--quick", args.quick),
                                   ("--perturb-oracle", args.perturb_oracle)) if on]
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace, extra, sha)
    for line in out:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
