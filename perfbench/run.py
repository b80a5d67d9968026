#!/usr/bin/env python3
"""The repository benchmark: one workload per run, metrics on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  atpg_hitec       HITEC-style justification ATPG on four retimed Table II
                   circuits, 2 engine threads; one op is one RunAtpg.  Set-up
                   prepares and certifies all sixteen Table II pairs.
  faultsim_long    PROOFS fault simulation at 2 threads and the default lane
                   width: Theorem-4-derived test sets on six Table III
                   retimed circuits (both scf rows among them) and six fault
                   chunks of a seeded ~20k-gate synthetic circuit under 24
                   vectors; one op is one SimulateProofs.  The context line
                   gives the bytes PROOFS walks for the synthetic circuit.
  preserve_served  the real repro_serve daemon (2 workers, 1-thread jobs)
                   under a closed loop of 4 client connections; one op is one
                   served job, from SUBMIT sent to result frame received.

The run builds the engine library, the daemon and the driver from source into
.bench_build/perfbench (CMake, Release), runs perfbench_driver and turns its raw
report into metrics.  Every op does a fixed, deterministic amount of work, ops
run in whole rounds in a seeded order, and every op's result is checked:
golden values (perfbench/golden.txt), re-simulation of ATPG claims, served
results against an in-process Service, and the per-fault Theorem-4 audit.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: self time per layer from spans around the driver's calls into each
layer (every second round is traced; served jobs are split by an in-process
replay of one round's jobs), work counts from the engines' metrics snapshot
(the daemon's STATS frame for preserve_served), and the tracing overhead as the
difference between traced and untraced rounds (or replays).

A line before the last one records the host and the sample counts; those
fields are context and are not gated.  The process exits 1 without a result
when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("atpg_hitec", "faultsim_long", "preserve_served")
# Environment variables that would change what the engines do.
SCRUBBED = (
    "REPRO_THREADS", "REPRO_SIMD", "REPRO_SWEEP", "REPRO_ATPG_BUDGET_MS",
    "REPRO_DEADLINE_MS", "REPRO_FAULT_TIMEOUT_MS", "REPRO_CHAOS",
    "REPRO_TRACE", "REPRO_FULL", "REPRO_CHECKPOINT_DIR",
)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    """Configures and builds the benchmark package; returns its directory."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (%s)" % log_path)


def percentile(values, fraction):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def metrics_of(snapshot):
    """The {counters, distributions} object of a metrics JSON or STATS frame."""
    return snapshot.get("metrics", snapshot)


def delta(before, after, name, field):
    """Growth of a counter ("value") or distribution ("count"/"sum")."""
    kind = "counters" if field == "value" else "distributions"
    new = metrics_of(after)[kind].get(name, {}).get(field, 0)
    old = metrics_of(before)[kind].get(name, {}).get(field, 0)
    return new - old


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(report):
    phase = report["phase"]
    setup = statistics.median(report["setup_s"]) + report.get("daemon_ready_s", 0)
    coverage = report["coverage"]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(phase["round_s"]), "s"),
        "latency_ms_p50": (statistics.median(phase["op_ms"]), "ms"),
        "fault_coverage_pct":
            (100.0 * ratio(coverage["detected"], coverage["faults"]), "%"),
        "fault_efficiency_pct":
            (100.0 * ratio(coverage["efficient"], coverage["faults"]), "%"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    p90 = percentile(phase["op_ms"], 0.9)
    if p90 is not None:
        metrics["latency_ms_p90"] = (p90, "ms")
    return metrics


def per_layer(report):
    phase = report["phase"]
    rounds = len(phase["round_s"])
    before, after = phase["metrics_before"], phase["metrics_after"]

    def per_round(name, field="value"):
        return delta(before, after, name, field) / rounds

    def mean(name):
        return ratio(delta(before, after, name, "sum"),
                     delta(before, after, name, "count"))

    # Self time per layer and round.  In process, every second round is
    # traced; served jobs are split by an in-process replay of one
    # round's job list.  Set-up-only layers are per set-up.
    layer_rounds = report["layer_rounds"] or 1
    layers = {k: v / layer_rounds for k, v in report["layers_ms"].items()}
    setup_layers = report["setup_layers_ms"]
    named = sum(v for k, v in layers.items() if k != "bench.op")
    served = "queued_ms" in phase
    if served:
        # Layer self times account for the daemon's run time of one
        # round's jobs; the overhead compares the two replays.
        wall_ms = statistics.median(phase["round_s"]) * 1000.0
        accounted_ms = sum(phase["run_ms"]) / rounds
        untraced_s, traced_s = report["replay_s"]
    else:
        # Layer self times account for a traced round's wall time; the
        # overhead compares traced with untraced rounds.
        split = {flag: [s for s, f in zip(phase["round_s"],
                                          phase["round_traced"]) if f == flag]
                 for flag in (False, True)}
        if not split[False] or not split[True]:
            fail("a traced run needs a traced and an untraced round")
        untraced_s = statistics.median(split[False])
        traced_s = statistics.median(split[True])
        wall_ms = accounted_ms = traced_s * 1000.0
    metrics = {
        "synth.synthesize_ms": (setup_layers.get("synth.synthesize", 0), "ms"),
        "retime.minimize_period_ms":
            (setup_layers.get("retime.minimize_period", 0), "ms"),
        "retime.minimize_registers_ms":
            (setup_layers.get("retime.minimize_registers", 0), "ms"),
        "retime.apply_ms": (setup_layers.get("retime.apply", 0), "ms"),
        "analyze.certify_ms": (layers.get("analyze.certify", 0), "ms"),
        "netlist.parse_ms": (layers.get("netlist.parse", 0), "ms"),
        "fault.collapse_ms": (layers.get("fault.collapse", 0), "ms"),
        "atpg.run_ms": (layers.get("atpg.run", 0), "ms"),
        "faultsim.simulate_ms": (layers.get("faultsim.simulate", 0), "ms"),
        "bench.glue_ms": (layers.get("bench.op", 0), "ms"),
        "trace.accounted_pct": (100.0 * ratio(named, accounted_ms), "%"),
        "trace.wall_s": (wall_ms / 1000.0, "s"),
        "trace.overhead_pct": (100.0 * (ratio(traced_s, untraced_s) - 1.0),
                               "%"),
        "atpg.podem.evaluations":
            (per_round("atpg.podem.evaluations"), "count"),
        "atpg.podem.backtracks": (per_round("atpg.podem.backtracks"), "count"),
        "atpg.justify.calls": (per_round("atpg.justify.calls"), "count"),
        "atpg.justify.success_ratio": (ratio(
            per_round("atpg.justify.justified"),
            per_round("atpg.justify.calls")), "ratio"),
        "atpg.det.discard_ratio": (ratio(
            per_round("atpg.det.speculation_discarded"),
            per_round("atpg.det.faults_dispatched")), "ratio"),
        "atpg.frontier.wait_ms":
            (per_round("atpg.frontier.wait_ms", "sum"), "ms"),
        "atpg.fault_search_ms.mean": (mean("atpg.fault_search_ms"), "ms"),
        "faultsim.gate_evals": (per_round("faultsim.gate_evals"), "count"),
        "faultsim.frames_evaluated":
            (per_round("faultsim.frames_evaluated"), "count"),
        "faultsim.batches": (per_round("faultsim.batches"), "count"),
        "faultsim.cone_activity_ratio":
            (mean("faultsim.cone_activity_ratio"), "ratio"),
        "faultsim.detect_ratio": (ratio(
            per_round("faultsim.faults_detected"),
            per_round("faultsim.faults_simulated")), "ratio"),
        "faultsim.lanes": (64 * report["lane_words"], "lanes"),
        "sim.cone_size": (mean("sim.cone_size"), "nodes"),
        "core.thread_pool.items": (per_round("core.thread_pool.items"), "count"),
        "core.thread_pool.queue_depth":
            (mean("core.thread_pool.queue_depth"), "count"),
        "fleet.job_ms": (mean("fleet.job_ms"), "ms"),
    }
    if served:
        latency, queued, run = (phase["op_ms"], phase["queued_ms"],
                                phase["run_ms"])
        delivery = [l - q - r for l, q, r in zip(latency, queued, run)]
        metrics.update({
            "serve.submit_rtt_ms":
                (statistics.median(phase["submit_rtt_ms"]), "ms"),
            "serve.queue_wait_ms.p50": (statistics.median(queued), "ms"),
            "serve.queue_wait_ms.p90": (percentile(queued, 0.9) or 0.0, "ms"),
            "serve.job_ms": (statistics.mean(run), "ms"),
            "serve.delivery_ms": (statistics.mean(delivery), "ms"),
            "serve.jobs.rejected": (per_round("serve.jobs.rejected"), "count"),
        })
    else:
        for name, unit in (("serve.submit_rtt_ms", "ms"),
                           ("serve.queue_wait_ms.p50", "ms"),
                           ("serve.queue_wait_ms.p90", "ms"),
                           ("serve.job_ms", "ms"), ("serve.delivery_ms", "ms"),
                           ("serve.jobs.rejected", "count")):
            metrics[name] = (0.0, unit)
    return metrics


def host_record(report, build_dir):
    flags = set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as text:
            for line in text:
                if ":" in line and "=" in line and not line.startswith("//"):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    phase = report["phase"]
    return {
        "nproc": os.cpu_count(),
        "isa": sorted(f for f in flags if f in (
            "sse4_2", "avx", "avx2", "bmi2", "fma", "avx512f", "avx512bw",
            "avx512vl")),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "build_flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "lanes": report["lanes"],
        "engine_threads": report["engine_threads"],
        "host.calibration_ms": report["calibration_ms"],
        "samples": {"setup": len(report["setup_s"]),
                    "rounds": len(phase["round_s"]),
                    "ops": len(phase["op_ms"])},
        "spool": report.get("spool", ""),
        "spool_filesystem": filesystem_of(".bench_build") if "spool" in report
                            else "",
        "theorem4_audited_faults": report["audited_faults"],
        "workload": report.get("workload_context", {}),
        "findings": report["findings"][:20],
    }


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and path.startswith(fields[1]) and \
                        len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", default="",
                        help="append this run's golden lines to FILE")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")) or \
            not os.path.isdir(os.path.join(root, "tools")):
        fail("run from the root of a checkout (no src/ or tools/ here)")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    build_dir = os.path.join(".bench_build", "perfbench")
    build(build_dir, env)

    work_dir = os.path.join(".bench_build", "run-%s-%d" % (args.workload,
                                                         os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    report_path = os.path.join(work_dir, "report.json")
    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--report", report_path,
        "--golden", os.path.join(BENCH_DIR, "golden.txt"),
        "--work-dir", work_dir,
        "--serve-binary", os.path.join(build_dir, "repro_serve"),
        "--s27", os.path.join(root, "examples", "s27_like.bench"),
    ]
    if args.write_golden:
        command += ["--write-golden", args.write_golden]
    try:
        # A session of its own, so a timeout also stops the daemon the
        # driver started.
        driver = subprocess.Popen(command, env=env, stdout=sys.stderr,
                                  start_new_session=True)
        try:
            code = driver.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(driver.pid, signal.SIGKILL)
            driver.wait()
            raise
        if code != 0:
            fail("driver exited with %d" % code)
        with open(report_path) as text:
            report = json.load(text)
    except (OSError, ValueError, subprocess.TimeoutExpired) as error:
        fail("driver run failed: %s" % error)
    finally:
        trace_file = os.path.join(work_dir, "trace_%s.json" % args.workload)
        if os.path.exists(trace_file):
            os.replace(trace_file, os.path.join(
                ".bench_build", "trace_%s.json" % args.workload))
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = per_layer(report) if args.trace else end_to_end(report)
    print(json.dumps({"context": host_record(report, build_dir)}))
    print(json.dumps({
        "correct": bool(report["ok"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
