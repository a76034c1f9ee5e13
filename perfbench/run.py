#!/usr/bin/env python3
"""Builds and runs the ADAMANT benchmark for one workload (or all of them).

    python3 perfbench/run.py --workload adhoc_sql --seed 1 --seconds 30

Run from the repository root. The first run configures and builds the
perfbench binary (perfbench/perfbench.cc plus the executor sources under
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset. Workload
parameters come from perfbench/spec.json, metric names and units from
BENCHMARK.json.
Everything but the last stdout line is a human-readable report; the last
line is one JSON object: correct, attempted, failed and the metrics of the
run (end-to-end with --trace 0, per-layer with --trace 1). --workload all
runs every workload in turn and prefixes each metric with its workload.

With --trace 1 each per-layer metric comes from the traced run of a workload
it should move (the "workload" of the metric in spec.json): the named
workload when it is listed there, otherwise the first one listed. Every
workload that supplies a metric runs traced, and they share the --seconds
window.

Set-up is timed in fresh processes, so every sample pays what a starting
program pays: half of a workload's setup_reps run before the measured run,
half after it, and the measured run's own set-up is one more sample.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (out_dir / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out_dir / "perfbench"


def binary_flags(name, params):
    flags = ["--workload=" + name]
    for key in ("mode", "sf", "nominal_sf", "driver", "devices", "clients",
                "workers", "kernel_threads", "sim_blocks"):
        if key in params:
            flags.append("--%s=%s" % (key.replace("_", "-"), params[key]))
    return flags


def run_binary(cmd, name, timeout):
    """Runs the binary; returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: perfbench exited with %d"
                           % (name, proc.returncode))
    return json.loads(lines[-1])


def fresh_setups(cmd, name, reps):
    """Set-up times of `reps` fresh processes that only set up."""
    return [run_binary(cmd + ["--setup-only"], name, SETUP_TIMEOUT_S)
            for _ in range(reps)]


def run_workload(binary, name, spec, seed, seconds, trace, out_dir):
    """Runs one workload; returns the binary's report, its metrics completed
    with the set-up medians over fresh processes."""
    params = spec["workloads"][name]
    cmd = [str(binary)] + binary_flags(name, params) + [
        "--seed=%d" % seed, "--seconds=%s" % seconds, "--trace=%d" % trace]
    setups = fresh_setups(cmd, name, params["setup_reps"] // 2)
    if trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / ("%s-seed%d.jsonl" % (name, seed))
        cmd.append("--trace-out=%s" % trace_file)
    report = run_binary(cmd, name, RUN_TIMEOUT_S)
    setups.append(report["setup"])
    setups += fresh_setups(cmd, name, params["setup_reps"] // 2)
    totals = [s["total_s"] for s in setups]
    report["setup_samples"] = totals
    report["metrics"]["setup_s"] = statistics.median(totals)
    for metric, key in (("tpch.generate_s", "generate_s"),
                        ("device.plug_s", "plug_s"),
                        ("service.start_s", "start_s")):
        report["metrics"][metric] = statistics.median(s[key] for s in setups)
    return report


def layer_owners(spec, metric, names):
    """The workloads a per-layer metric should move (spec.json)."""
    listed = spec["per_layer"][metric]["workload"]
    return names if listed == "all" else [w.strip() for w in listed.split(",")]


def print_run(name, seed, report, trace):
    props = report["properties"]
    print("== %s seed %d: %d requests in a %.2f s window; checks took %.2f s"
          % (name, seed, report["attempted"], props["window_s"],
             props["check_s"]))
    print("   threads: %d clients + %d workers + %d kernel threads = %d "
          "budget on nproc %d; host steal during run %.2f s"
          % (props["clients"], props["workers"], props["kernel_threads"],
             props["thread_budget"], props["nproc"], props["steal_s"]))
    inputs = ["chunks/query %.2f" % props["chunks_per_query"],
              "cache hit ratio %.3f" % props["cache_hit_ratio"],
              "requests repeating an earlier query+literals %.3f"
              % props["repeated_text_share"]]
    if "cache_evictions" in props:
        inputs.append("cache evictions %d" % props["cache_evictions"])
    if "working_set_mib" in props:
        inputs.append("nominal working set %.0f MiB vs cache budget %.0f MiB"
                      % (props["working_set_mib"], props["cache_budget_mib"]))
    print("   inputs: " + ", ".join(inputs))
    if not trace:
        print("   %-26s %16.6f %-6s %-5s"
              % ("bench.harness_share",
                 report["metrics"]["bench.harness_share"], "ratio", "host"))
    else:
        print("   %d traced requests; their call spans cover at least %.4f of "
              "each request's latency" % (props["traced_requests"],
                                          props["min_span_coverage"]))
        for kind, row in sorted(props["per_kind"].items()):
            print("   kind %-16s n=%-4d latency p50 %.3f ms  p90 %.3f ms  "
                  "run %.3f ms" % (kind, row["samples"], row["latency_p50_ms"],
                                   row["latency_p90_ms"],
                                   row["runtime.run_ms"]))
    setups = report["setup_samples"]
    print("   set-up in %d fresh processes: median %.4f s, range %.4f-%.4f s; "
          "the measured run's own %.4f s"
          % (len(setups), statistics.median(setups), min(setups), max(setups),
             report["setup"]["total_s"]))
    for failure in report["failures"]:
        print("   FAILED %dx %s: %s" % (failure["count"], failure["kind"],
                                       failure["message"]))
    probes = report["probes"]
    if probes:
        print("   SQL q3, run outside the measured mix once per segment at %s: "
              "%d of %d pass" % (probes[0]["date"],
                                 sum(p["passed"] for p in probes), len(probes)))
        for probe in probes:
            if not probe["passed"]:
                print("   KNOWN DEFECT q3 %s: %s" % (probe["segment"],
                                                    probe["message"]))


def metric_note(metric, props):
    """Sample counts behind an end-to-end metric."""
    if metric in ("throughput_qps", "latency_p50_ms"):
        return "median of %d slices; n=%d, >=%d per slice" % (
            props["slices"], props["latency_samples"],
            props["slice_min_samples"])
    if metric == "latency_p90_ms":
        note = "n=%d" % props["latency_samples"]
        if props["latency_samples"] < 100:
            note += " (fewer than 10 samples beyond p90)"
        return note
    if metric == "sim_ms_per_query":
        return "n=%d" % props["sim_samples"]
    return ""


def main():
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        undocumented = {m["name"] for m in bench[kind]} - set(spec[kind])
        if undocumented:
            log("perfbench: spec.json lacks %s" % sorted(undocumented))
            return 1
    if set(names) != set(spec["workloads"]):
        log("perfbench: spec.json and BENCHMARK.json name different workloads")
        return 1
    for entry in bench["per_layer"]:
        if not set(layer_owners(spec, entry["name"], names)) <= set(names):
            log("perfbench: spec.json names an unknown workload for %s"
                % entry["name"])
            return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log("perfbench: build failed: %s" % err)
        return 1

    selected = names if args.workload == "all" else [args.workload]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    clocks = spec["per_layer" if args.trace else "end_to_end"]
    # source[name][metric]: the workload whose run gives the metric. A
    # per-layer metric comes from the traced run of a workload it should
    # move: the named one when it is among them, otherwise the first listed,
    # so no layer reads 0 just because the named workload does not reach it.
    source = {}
    for name in selected:
        source[name] = {}
        for entry in wanted:
            owners = (layer_owners(spec, entry["name"], names) if args.trace
                      else [name])
            source[name][entry["name"]] = name if name in owners else owners[0]
    needed = {w for per_name in source.values() for w in per_name.values()}
    runs = [w for w in names if w in needed]
    # Traced runs share the window, so a traced run measures as long as an
    # untraced one.
    seconds = args.seconds / len(runs) if args.trace else args.seconds

    reports = {}
    for name in runs:
        try:
            reports[name] = run_workload(binary, name, spec, args.seed,
                                         seconds, args.trace, out_dir)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            log("perfbench: %s" % err)
            return 1
        print_run(name, args.seed, reports[name], args.trace)

    result = {"correct": all(r["correct"] for r in reports.values()),
              "attempted": sum(r["attempted"] for r in reports.values()),
              "failed": sum(r["failed"] for r in reports.values()),
              "metrics": {}}
    for name in selected:
        print("== %s %s metrics" % (name, "per-layer" if args.trace
                                     else "end-to-end"))
        prefix = name + "/" if args.workload == "all" else ""
        for entry in wanted:
            metric = entry["name"]
            src = source[name][metric]
            value = reports[src]["metrics"].get(metric)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                log("perfbench: %s: metric %s missing or not finite"
                    % (src, metric))
                return 1
            note = ("from " + src if src != name else "") if args.trace else \
                metric_note(metric, reports[src]["properties"])
            print("   %-26s %16.6f %-6s %-5s %s"
                  % (metric, value, entry["unit"], clocks[metric]["clock"],
                     note))
            result["metrics"][prefix + metric] = {"value": value,
                                                  "unit": entry["unit"]}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
