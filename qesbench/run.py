#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 qesbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 qesbench/run.py --selftest

Builds the qesbench binary from source (qesbench/CMakeLists.txt compiles
the program's libraries from src/) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, then runs one workload.

--trace 0 prints every end-to-end metric named in BENCHMARK.json.
--trace 1 runs the workload twice for --seconds/2 each, untraced and
traced, and prints every per-layer metric plus overhead.<metric> =
traced - untraced for each end-to-end metric. Per-layer metrics of a
layer the workload bypasses are printed as 0 and listed.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every correctness check passed.

--selftest runs every workload at a tiny size, traced and untraced, and
checks that every metric in BENCHMARK.json is printed with its unit and
that every correctness check passes.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_DEADLINE_S = 175.0  # a run must end within 180 s of its start

WIRE = ("wire_steady",)
ORACLE = ("oracle_qeopt",)
ALL = WIRE + ORACLE

# Per-layer metric -> (workloads that measure it, what it should move).
# A workload that bypasses the layer reports 0. The online DES beside the
# oracle is timed in sim.des_run_s, which is not part of its run_s, so
# the engine, policy and stream layers it measures move no gated
# end-to-end time.
DES_LAYER = "sim.des_run_s@oracle_qeopt"
LAYER_MAP = {
    "net.send_lag_max_ms": (WIRE, "generator health (flags a client-bound run)"),
    "net.gen_cpu_s": (WIRE, "generator health"),
    "net.ingress_cpu_s": (WIRE, "cpu_us_per_req@wire_steady"),
    "net.plane_wait_p50_ms": (WIRE, "served_p50_ms@wire_steady"),
    "net.plane_wait_p99_ms": (WIRE, "served_p99_ms@wire_steady"),
    "runq.pushed": (WIRE, "served_pct, served_p99_ms@wire_steady"),
    "runq.drained": (WIRE, "served_pct, served_p99_ms@wire_steady"),
    "runq.stolen": (WIRE, "served_pct, served_p99_ms@wire_steady"),
    "runq.shed": (WIRE, "served_pct, served_p99_ms@wire_steady"),
    "runq.steal_ratio": (WIRE, "served_pct, served_p99_ms@wire_steady"),
    "runtime.trigger_cpu_s": (WIRE, "cpu_us_per_req, goodput_rps@wire_steady"),
    "runtime.trigger_busy": (WIRE, "cpu_us_per_req, goodput_rps@wire_steady"),
    "runtime.replans": (WIRE, "cpu_us_per_req, quality_norm@wire_steady"),
    "runtime.replan_publish_s": (WIRE, "cpu_us_per_req, quality_norm@wire_steady"),
    "runtime.replan_publish_ms_mean": (WIRE, "cpu_us_per_req, quality_norm@wire_steady"),
    "runtime.trigger_other_s": (WIRE, "cpu_us_per_req@wire_steady"),
    "runtime.worker_cpu_s": (WIRE, "cpu_us_per_req@wire_steady"),
    "runtime.pace_slices": (WIRE, "cpu_us_per_req@wire_steady"),
    "runtime.idle_polls": (WIRE, "cpu_us_per_req@wire_steady"),
    "runtime.plan_flips": (WIRE, "cpu_us_per_req@wire_steady"),
    "runtime.model_latency_p50_ms": (WIRE, "served_p50_ms@wire_steady (DES stretches work to the deadline)"),
    "runtime.model_latency_p99_ms": (WIRE, "served_p99_ms@wire_steady"),
    "obs.metrics_cpu_s": (WIRE, "cpu_us_per_req@wire_steady"),
    "policy.replan_s": (ORACLE, DES_LAYER),
    "policy.replans": (ORACLE, DES_LAYER),
    "policy.replan_us_mean": (ORACLE, DES_LAYER),
    "workload.next_s": (ORACLE, DES_LAYER),
    "sim.engine_self_s": (ORACLE, DES_LAYER),
    "sim.events": (ORACLE, DES_LAYER),
    "sim.events_per_s": (ORACLE, DES_LAYER),
    "sim.des_run_s": (ORACLE, "quality_norm, joules_per_req@oracle_qeopt come from this run; its time is not in run_s"),
    "sched.quality_opt_s": (ORACLE, "run_s@oracle_qeopt"),
    "sched.yds_s": (ORACLE, "run_s@oracle_qeopt"),
}
for _phase in ("crr", "yds", "wf", "online_qe"):
    for _suffix in ("_ms_mean", "_count"):
        LAYER_MAP["policy." + _phase + _suffix] = (
            ALL, "cpu_us_per_req@wire_steady; " + DES_LAYER)


def fail(msg):
    print("qesbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, e2e, layer


def build():
    """Configures (once) and builds the qesbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("program sources (src/) not found next to qesbench/")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or (ROOT / ".bench_build"))
    if not out.is_absolute():
        out = Path.cwd() / out
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "qesbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out / "qesbench"


def run_binary(binary, args, deadline):
    """Runs one pass; echoes its human-readable lines, returns its JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before a pass could start")
    try:
        p = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("pass timed out: " + " ".join(args))
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stderr)
        fail("pass printed no result (exit %d): %s" % (p.returncode, " ".join(args)))
    for line in lines[:-1]:
        print(line)
    if p.stderr:
        sys.stderr.write(p.stderr)
    return json.loads(lines[-1])


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def run(workload, seed, seconds, trace, tiny=False, binary=None):
    """Runs one benchmark invocation; returns (result, problems).

    `result` is the final JSON object; `problems` lists metrics that were
    missing, non-finite or in the wrong unit (each one fails the run).
    """
    _, e2e, layer = load_spec()
    if workload not in ALL:
        fail("unknown workload '%s' (known: %s)" % (workload, ", ".join(ALL)))
    binary = binary or build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    problems = []

    def take(got, name, unit):
        m = got["metrics"].get(name)
        if m is None or not finite(m["value"]):
            problems.append("%s missing or not finite" % name)
            return None
        if m["unit"] != unit:
            problems.append("%s has unit %s, expected %s" % (name, m["unit"], unit))
        return m

    if not trace:
        got = run_binary(binary, base + ["--seconds", str(seconds), "--trace", "0"], deadline)
        metrics = {}
        for name, unit in e2e.items():
            m = take(got, name, unit)
            if m is not None:
                metrics[name] = {"value": m["value"], "unit": unit}
        result = {"correct": bool(got["correct"]) and not problems,
                  "attempted": int(got["attempted"]), "failed": int(got["failed"]),
                  "metrics": metrics}
        return result, problems

    # Traced: an untraced and a traced pass of half the time each, one
    # repetition floor, so the overhead compares like with like.
    half = ["--seconds", str(max(seconds / 2.0, 0.1)), "--min-reps", "1"]
    print("== untraced pass")
    plain = run_binary(binary, base + half + ["--trace", "0"], deadline)
    print("== traced pass")
    traced = run_binary(binary, base + half + ["--trace", "1"], deadline)
    metrics = {}
    bypassed = []
    for name, unit in layer.items():
        if name.startswith("overhead."):
            e2e_name = name[len("overhead."):]
            a = take(traced, e2e_name, unit)
            b = take(plain, e2e_name, unit)
            if a is not None and b is not None:
                metrics[name] = {"value": a["value"] - b["value"], "unit": unit}
            continue
        workloads, _ = LAYER_MAP.get(name, ((), ""))
        if workload not in workloads:
            metrics[name] = {"value": 0, "unit": unit}
            bypassed.append(name)
            continue
        m = take(traced, name, unit)
        if m is not None:
            metrics[name] = {"value": m["value"], "unit": unit}

    print("== tracing overhead (traced - untraced, same length)")
    for name in e2e:
        a = traced["metrics"].get(name, {}).get("value")
        b = plain["metrics"].get(name, {}).get("value")
        if finite(a) and finite(b):
            rel = (a - b) / b * 100.0 if b else float("nan")
            print("overhead %-18s traced %.6g untraced %.6g delta %+.6g (%+.1f%%)"
                  % (name, a, b, a - b, rel))
    tm = traced["metrics"]
    tv = {k: v["value"] for k, v in tm.items() if finite(v["value"])}
    run_plain = plain["metrics"].get("run_s", {}).get("value")
    if workload == "oracle_qeopt" and run_plain:
        parts = tv.get("sched.quality_opt_s", 0.0) + tv.get("sched.yds_s", 0.0)
        print("identity sched.quality_opt_s + sched.yds_s = %.6f s; untraced QE-OPT run_s "
              "%.6f s; difference %+.6f s (overhead.run_s %+.6f s)"
              % (parts, run_plain, parts - run_plain, tv.get("run_s", 0.0) - run_plain))
        # The traced DES run's own parts against the untraced DES run.
        des_plain = plain["metrics"].get("sim.des_run_s", {}).get("value")
        parts = sum(tv.get(k, 0.0) for k in
                    ("policy.replan_s", "workload.next_s", "sim.engine_self_s"))
        if des_plain:
            print("identity policy.replan_s + workload.next_s + sim.engine_self_s = %.6f s "
                  "(traced DES); untraced sim.des_run_s %.6f s; difference %+.6f s"
                  % (parts, des_plain, parts - des_plain))
    print("== layer map (per-layer metric -> end-to-end metric@workload it should move)")
    for name, (workloads, target) in LAYER_MAP.items():
        if workload in workloads:
            print("layer %-32s -> %s" % (name, target))
    if bypassed:
        print("bypassed on %s (reported as 0): %s" % (workload, ", ".join(bypassed)))
    result = {"correct": bool(plain["correct"]) and bool(traced["correct"]) and not problems,
              "attempted": int(plain["attempted"]) + int(traced["attempted"]),
              "failed": int(plain["failed"]) + int(traced["failed"]),
              "metrics": metrics}
    return result, problems


def selftest():
    spec, e2e, layer = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(ALL):
        fail("BENCHMARK.json names unknown workloads %s" % sorted(set(names) - set(ALL)))
    binary = build()
    ok = True
    for workload in ALL:
        for trace in (0, 1):
            print("==== selftest %s --trace %d" % (workload, trace))
            result, problems = run(workload, 1, 1.0, trace, tiny=True, binary=binary)
            want = e2e if trace == 0 else layer
            for name, unit in want.items():
                m = result["metrics"].get(name)
                if m is None or m["unit"] != unit:
                    problems.append("%s not printed with unit %s" % (name, unit))
            if set(result["metrics"]) != set(want):
                problems.append("unexpected metrics %s" % sorted(set(result["metrics"]) - set(want)))
            if not result["correct"]:
                problems.append("a correctness check failed")
            if result["attempted"] < 1:
                problems.append("attempted < 1")
            status = "PASS" if not problems else "FAIL"
            ok = ok and not problems
            print("selftest %-14s trace=%d %s %s" % (workload, trace, status, "; ".join(problems)))
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(load_spec()[0]["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result, problems = run(args.workload, args.seed, args.seconds, args.trace)
    for p in problems:
        print("problem " + p, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
