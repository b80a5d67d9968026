#include "experiments.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "core/metrics.h"
#include "core/thread_pool.h"
#include "fsm/benchmarks.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"

namespace retest::bench {

using synth::EncodingStyle;
using synth::ScriptStyle;

const std::vector<Variant>& Table2Variants() {
  static const std::vector<Variant> kVariants = {
      {"dk16", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"pma", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kCombined, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s510", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kInputDominant, ScriptStyle::kRugged},
      {"s510", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kCombined, ScriptStyle::kDelay},
      {"s820", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kInputDominant, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
      {"s820", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"s832", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s832", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"scf", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"scf", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
  };
  return kVariants;
}

double TimeMs(const std::function<void()>& fn, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

sim::InputSequence RandomSequence(const netlist::Circuit& circuit, int length,
                                  std::uint64_t seed) {
  sim::InputSequence sequence;
  std::uint64_t state = seed;
  for (int t = 0; t < length; ++t) {
    std::vector<sim::V3> vector(static_cast<size_t>(circuit.num_inputs()));
    for (auto& v : vector) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = (state >> 33) & 1 ? sim::V3::k1 : sim::V3::k0;
    }
    sequence.push_back(std::move(vector));
  }
  return sequence;
}

std::string HostIsa() {
#if defined(__x86_64__)
  std::string isa = "x86-64";
  if (__builtin_cpu_supports("avx2")) isa += " avx2";
  if (__builtin_cpu_supports("avx512f")) isa += " avx512f";
  return isa;
#else
  return "not x86-64";
#endif
}

std::string CheckpointPathFor(const std::string& circuit_name) {
  const char* dir = std::getenv("REPRO_CHECKPOINT_DIR");
  if (dir == nullptr || *dir == '\0') return "";
  std::string path(dir);
  if (path.back() != '/') path += '/';
  // Circuit names contain dots (e.g. "s510.jc.sd") but no separators.
  path += circuit_name;
  path += ".journal";
  return path;
}

netlist::Circuit SynthesizeVariant(const Variant& variant) {
  synth::SynthesisOptions options;
  options.encoding = variant.encoding;
  options.script = variant.script;
  for (const auto& info : fsm::PaperFsmTable()) {
    if (std::string(info.name) == variant.fsm) {
      options.explicit_reset = info.explicit_reset;
    }
  }
  return synth::Synthesize(fsm::MakeBenchmarkFsm(variant.fsm), options);
}

Prepared PrepareVariant(const Variant& variant) {
  Prepared prepared;
  prepared.original = SynthesizeVariant(variant);
  prepared.build = retime::BuildGraph(prepared.original);
  const auto min_period = retime::MinimizePeriod(prepared.build.graph);
  const auto min_reg = retime::MinimizeRegisters(
      prepared.build.graph, min_period.period, &min_period.retiming);
  prepared.retiming = min_reg.retiming;
  prepared.period_before = min_period.original_period;
  prepared.period_after =
      prepared.build.graph.ClockPeriod(prepared.retiming.lags);
  prepared.moves = retime::CountMoves(prepared.build.graph, prepared.retiming);
  auto applied = retime::ApplyRetiming(prepared.original, prepared.build,
                                       prepared.retiming);
  prepared.retimed = std::move(applied.circuit);
  return prepared;
}

std::size_t RunPairs(const std::function<void(std::size_t)>& measure,
                     std::string& error) {
  const std::vector<Variant>& variants = Table2Variants();
  std::vector<std::string> failures(variants.size());
  core::ParallelFor(0, variants.size(), [&](int, std::size_t i) {
    try {
      measure(i);
    } catch (const std::exception& e) {
      failures[i] = std::string(variants[i].fsm) + ": " + e.what();
    }
  });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (failures[i].empty()) continue;
    error = failures[i];
    return i;
  }
  return variants.size();
}

int ExitCode(bool wrote, bool any_rows, const std::string& error) {
  if (!wrote) return kExitJsonWriteFailure;
  if (!error.empty()) return any_rows ? kExitPartial : kExitFatal;
  return kExitOk;
}

bool WriteBenchJson(const char* file, bool smoke, const std::string& error,
                    const std::function<void(std::FILE*)>& fields) {
  std::FILE* f = std::fopen(file, "w");
  if (f != nullptr) {
    const char* mode = smoke ? "smoke" : (FullMode() ? "full" : "default");
    std::fprintf(f, "{\n  \"mode\": \"%s\",\n", mode);
    std::fprintf(f, "  \"host\": {\"nproc\": %u, \"isa\": \"%s\"},\n",
                 std::max(1u, std::thread::hardware_concurrency()),
                 HostIsa().c_str());
    if (!error.empty()) {
      std::fprintf(f, "  \"error\": \"%s\",\n", JsonEscape(error).c_str());
    }
    fields(f);
    std::fprintf(f, "  \"metrics\": %s\n}\n",
                 core::metrics::ToJson(2).c_str());
    const bool written = !std::ferror(f);
    if (std::fclose(f) == 0 && written) {
      std::printf("wrote %s%s\n", file, error.empty() ? "" : " (partial)");
      return true;
    }
  }
  std::fprintf(stderr, "cannot write %s\n", file);
  return false;
}

bool FullMode() {
  const char* env = std::getenv("REPRO_FULL");
  return env != nullptr && std::string(env) == "1";
}

long BudgetMs(long base_ms) {
  // REPRO_ATPG_BUDGET_MS pins every driver budget to one absolute
  // value.  Raising it until the budget never binds makes an ATPG run
  // fully deterministic (each fault's search is bounded by the
  // per-fault backtrack/evaluation limits; only the wall-clock cutoff
  // is load-sensitive), so driver outputs byte-compare across runs.
  if (const char* env = std::getenv("REPRO_ATPG_BUDGET_MS")) {
    char* end = nullptr;
    const long forced = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && forced > 0) return forced;
  }
  return FullMode() ? base_ms * 10 : base_ms;
}

atpg::AtpgOptions Table2AtpgOptions(long budget_ms) {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kJustification;
  options.random_rounds = 0;  // HITEC is purely deterministic
  options.backtracks_per_fault = 500;
  options.justify_backtracks = 3000;
  options.time_budget_ms = budget_ms;
  return options;
}

atpg::AtpgOptions TestSetAtpgOptions(long budget_ms) {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 96;
  options.time_budget_ms = budget_ms;
  return options;
}

}  // namespace retest::bench
