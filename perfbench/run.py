#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result line.

    python3 perfbench/run.py --workload local_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call builds the library from
src/ together with the benchmark (CMake, into .bench_build/); later calls
only rebuild what changed.  The binary validates every output and prints
a report (info / metric / check / requests lines, echoed here); the last
line of stdout is one JSON object with the metrics BENCHMARK.json names:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1.  Traced runs also write their spans to
.bench_build/traces/<workload>-<seed>.json.

Set-up is a fresh process's cost: an untraced run times it in its own
process and in SETUPS - 1 more processes that stop after the set-up, and
reports the medians of setup_s and setup_peak_rss_mb.

--workload all runs every workload in turn and ends with a table of their
end-to-end metrics (every one the report prints, with unit and sample
count) instead of a result line.  --selftest runs the
benchmark's own tests, then a one-second smoke run of every workload,
traced and untraced, each still validating every output.

Exit status: 0 for a correct, complete run; nonzero for a build failure,
an invalid output, a missing metric or a timeout -- then no result line is
printed unless the run completed with invalid outputs (correct: false).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("local_mix", "wire_tenants", "dist_socket")
SETUP_METRICS = ("setup_s", "setup_peak_rss_mb")
# Every end-to-end metric the report prints; BENCHMARK.json gates the steady ones.
END_TO_END = ("setup_s", "setup_peak_rss_mb", "cpu_ns_per_item", "items_per_s", "req_per_s",
              "large_p50_ms", "small_p50_ms", "small_p99_ms", "peak_rss_mb", "failed_frac",
              "wire_bytes_per_item")
SETUPS = 5
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def env():
    """Keep compiler and program temporaries inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    e = dict(os.environ)
    e["TMPDIR"] = tmp
    return e


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources: run from the root of a checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env(), timeout=840)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


class Report:
    """The binary's report lines: metrics, failed checks, request counts."""

    def __init__(self, returncode, stdout):
        self.returncode = returncode
        self.stdout = stdout
        self.metrics, self.failed_checks = {}, []
        self.attempted = self.failed = None
        self.correct = False
        for line in stdout.splitlines():
            f = line.split()
            if len(f) >= 5 and f[0] == "metric":
                self.metrics[f[1]] = {"value": float(f[2]), "unit": f[3], "samples": int(f[4])}
            elif len(f) >= 3 and f[0] == "check" and f[2] != "ok":
                self.failed_checks.append(line)
            elif len(f) == 3 and f[0] == "requests":
                self.attempted, self.failed = int(f[1]), int(f[2])
            elif len(f) == 2 and f[0] == "correct":
                self.correct = f[1] == "true"

    @property
    def ok(self):
        return self.returncode == 0 and self.correct and not self.failed_checks and not self.failed


def run_binary(workload, seed, seconds, trace, setup_only=False):
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", os.path.join(traces, "%s-%s.json" % (workload, seed)),
           "--setup-only", "1" if setup_only else "0"]
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, timeout))
    sys.stderr.write(r.stderr)
    return Report(r.returncode, r.stdout)


def measure(workload, seed, seconds, trace, spec):
    """One run of `workload`; returns (ok, its Report with the set-up medians)."""
    main = run_binary(workload, seed, seconds, trace)
    sys.stdout.write(main.stdout)
    ok = main.ok
    if not trace:
        setups = [run_binary(workload, seed, seconds, 0, setup_only=True) for _ in range(SETUPS - 1)]
        for s in setups:
            if not s.ok:
                print("perfbench: set-up process failed: " + "; ".join(s.failed_checks), file=sys.stderr)
                ok = False
        for name in SETUP_METRICS:
            values = [r.metrics[name]["value"] for r in [main] + setups if name in r.metrics]
            if values:
                m = main.metrics[name] = dict(main.metrics.get(name, {}), value=statistics.median(values),
                                              samples=len(values))
                print("metric %s %.17g %s %d" % (name, m["value"], m["unit"], m["samples"]))
    for line in main.failed_checks:
        print("perfbench: " + line, file=sys.stderr)
    if main.attempted is None or main.attempted < 1:
        fail("%s exited %d without a request count" % (workload, main.returncode))
    problems = missing(main, spec["per_layer" if trace else "end_to_end"])
    if problems:
        fail("; ".join(problems))
    return ok, main


def missing(rep, wanted):
    """The metrics of `wanted` that `rep` lacks or measured in another unit."""
    problems = []
    for m in wanted:
        got = rep.metrics.get(m["name"])
        if got is None:
            problems.append("metric %s was not measured" % m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("metric %s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
    return problems


def result_line(ok, rep, wanted):
    return json.dumps({"correct": ok, "attempted": rep.attempted, "failed": rep.failed,
                       "metrics": {m["name"]: {"value": rep.metrics[m["name"]]["value"], "unit": m["unit"]}
                                   for m in wanted}})


def selftest(spec):
    build()
    r = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], env=env(), timeout=120)
    ok = r.returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rep = run_binary(workload, 1, 1, trace)
            problems = rep.failed_checks + missing(rep, spec["per_layer" if trace else "end_to_end"])
            good = rep.ok and not problems
            print("%s smoke %s trace=%d: %d requests, %s" % (
                "ok  " if good else "FAIL", workload, trace, rep.attempted or 0,
                "all outputs valid, every metric reported" if good else
                "; ".join(problems) or "exit %d" % rep.returncode))
            ok = ok and good
    print("PASS" if ok else "FAIL", flush=True)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        p.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()
    if args.workload != "all":
        ok, rep = measure(args.workload, args.seed, seconds, args.trace, spec)
        print(result_line(ok, rep, wanted), flush=True)
        return 0 if ok else 1
    table, all_ok = [], True
    gated = {m["name"] for m in wanted}
    for workload in WORKLOADS:
        ok, rep = measure(workload, args.seed, seconds, args.trace, spec)
        all_ok = all_ok and ok
        names = END_TO_END if not args.trace else [m["name"] for m in wanted]
        for name in names:
            got = rep.metrics.get(name)
            if got is not None:
                table.append("%-13s %-30s %16.6g %-8s %8d %s" % (
                    workload, name, got["value"], got["unit"], got["samples"], "*" if name in gated else ""))
    print("\n%-13s %-30s %16s %-8s %8s" % ("workload", "metric", "value", "unit", "samples"))
    print("\n".join(table))
    print("(* in the result line of a single-workload run)")
    print("correct: %s" % ("true" if all_ok else "false"), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
