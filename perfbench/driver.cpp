// perfbench_driver: runs one benchmark workload and writes its raw
// report (samples, metric snapshots, layer self times, checks) as one
// JSON object to --report.  run.py builds this program, runs it and
// turns the report into the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --report FILE --golden FILE --work-dir DIR
//                    [--serve-binary FILE] [--s27 FILE] [--write-golden FILE]
//
// --s27 names the s27-shaped example circuit preserve_served serves
// (default examples/s27_like.bench, from the root of a checkout).
//
// Exit code 0 when the run completed (its checks may still have
// failed: see "failed" and "findings"), 2 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>

#include "core/metrics.h"
#include "sim/simd.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// The environment variables that change what the engines do; the
/// driver and the daemon it starts run without them.
constexpr const char* kScrubbed[] = {
    "REPRO_THREADS",          "REPRO_SIMD",        "REPRO_SWEEP",
    "REPRO_ATPG_BUDGET_MS",   "REPRO_DEADLINE_MS", "REPRO_FAULT_TIMEOUT_MS",
    "REPRO_CHAOS",            "REPRO_TRACE",       "REPRO_FULL",
    "REPRO_CHECKPOINT_DIR",
};

/// A fixed spin loop; its duration tells a slow host from a slow
/// program.
double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return MsSince(start);
}

/// `rounds` whole rounds of the op set, each in a seeded order.  Each
/// op's outcome must repeat its first one exactly.  With
/// `trace_odd_rounds`, every second round is traced: traced and untraced
/// rounds then see the same host, so their difference is the tracing
/// overhead.
Phase RunPhase(const std::vector<Op>& ops, std::mt19937_64& rng, int rounds,
               bool trace_odd_rounds, std::map<std::string, Outcome>& first,
               std::vector<Finding>& findings) {
  Tracer& trace = Trace();
  trace.Clear();
  Phase phase;
  phase.metrics_before = retest::core::metrics::ToJson();
  const Clock::time_point start = Clock::now();
  std::vector<std::size_t> order(ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int round = 0; round < rounds; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    trace.Enable(trace_odd_rounds && round % 2 == 1);
    const Clock::time_point round_start = Clock::now();
    for (const std::size_t i : order) {
      trace.SetOp(static_cast<int>(phase.op_ms.size()));
      const Clock::time_point op_start = Clock::now();
      const Outcome outcome = trace.Span("bench.op", ops[i].run);
      phase.op_ms.push_back(MsSince(op_start));
      phase.op_names.push_back(ops[i].name);
      if (!outcome.error.empty()) {
        findings.push_back({ops[i].name, outcome.error});
      }
      const auto [seen, inserted] = first.try_emplace(ops[i].name, outcome);
      if (!inserted && seen->second.repeat != outcome.repeat) {
        findings.push_back({ops[i].name, "result changed between rounds: " +
                                             seen->second.repeat + " then " +
                                             outcome.repeat});
      }
    }
    phase.round_s.push_back(MsSince(round_start) / 1000.0);
    phase.round_traced.push_back(trace.enabled());
    if (MsSince(start) / 1000.0 > kPhaseCapS) break;
  }
  phase.metrics_after = retest::core::metrics::ToJson();
  trace.Enable(false);
  return phase;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report;
  std::string golden;
  std::string work_dir = ".";
  std::string serve_binary;
  std::string write_golden;
  std::string s27 = "examples/s27_like.bench";
};

/// Runs atpg_hitec or faultsim_long; returns the report's members.
std::string RunInProcess(const Args& args, Workload& workload, bool& ok) {
  std::mt19937_64 rng(args.seed);
  Run run;
  run.setups = RunSetups(args.trace, [&] { workload.Setup(); });

  const std::vector<Op> ops = workload.Ops();
  // One untimed warm-up op.
  run.outcomes.try_emplace(ops.front().name, ops.front().run());

  int rounds = RoundsFor(args.seconds, workload.NominalRoundSeconds(),
                         static_cast<int>(ops.size()),
                         args.trace ? 0 : kMinOps);
  // A traced run needs as many traced rounds as untraced ones, and at
  // least one of each.
  if (args.trace) rounds = std::max(2, rounds + rounds % 2);
  run.phase = RunPhase(ops, rng, rounds, args.trace, run.outcomes,
                       run.findings);
  Tracer& trace = Trace();
  run.layers_ms = trace.SelfMs();
  run.layer_rounds = static_cast<int>(std::count(
      run.phase.round_traced.begin(), run.phase.round_traced.end(), true));
  if (args.trace) {
    trace.Write(args.work_dir + "/trace_" + args.workload + ".json");
  }

  if (!args.write_golden.empty()) {
    // The synthetic circuit depends on the seed, so it has no golden values.
    AppendGolden(args.write_golden, args.workload, run.outcomes, "synthetic/");
  }
  for (Finding& f :
       workload.Check(run.outcomes, ReadGolden(args.golden, args.workload))) {
    run.findings.push_back(std::move(f));
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  run.peak_rss_kb = usage.ru_maxrss;
  ok = run.findings.empty();
  return RunJson(run) + ", \"workload_context\": " + workload.Context();
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--report") {
      args.report = value;
    } else if (key == "--golden") {
      args.golden = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--serve-binary") {
      args.serve_binary = value;
    } else if (key == "--write-golden") {
      args.write_golden = value;
    } else if (key == "--s27") {
      args.s27 = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.report.empty() &&
         args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kScrubbed) ::unsetenv(name);
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds "
                 "S --trace 0|1 --report FILE --golden FILE --work-dir DIR "
                 "[--serve-binary FILE] [--s27 FILE] [--write-golden FILE]\n");
    return 2;
  }
  const double calibration_before = CalibrationMs();
  std::string body;
  bool ok = false;
  try {
    if (args.workload == "preserve_served") {
      ServedOptions options;
      options.seed = args.seed;
      options.seconds = args.seconds;
      options.trace = args.trace;
      options.serve_binary = args.serve_binary;
      options.work_dir = args.work_dir;
      options.golden_path = args.golden;
      options.s27_path = args.s27;
      options.write_golden = args.write_golden;
      body = RunServed(options, ok);
    } else if (args.workload == "atpg_hitec") {
      body = RunInProcess(args, *MakeAtpgHitec(), ok);
    } else if (args.workload == "faultsim_long") {
      body = RunInProcess(args, *MakeFaultsimLong(args.seed), ok);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const double calibration_after = CalibrationMs();

  std::ofstream report(args.report);
  report.precision(17);
  report << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"ok\": " << (ok ? "true" : "false") << ", "
         << body << ", \"engine_threads\": " << kEngineThreads
         << ", \"lane_words\": " << retest::sim::ResolveLaneWords(0)
         << ", \"lanes\": \""
         << JsonEscape(retest::sim::DescribeLaneWords(
                retest::sim::ResolveLaneWords(0)))
         << "\", \"audited_faults\": " << AuditedFaults()
         << ", \"calibration_ms\": [" << calibration_before << ", "
         << calibration_after << "]}\n";
  if (!report.flush()) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 args.report.c_str());
    return 2;
  }
  return 0;
}
