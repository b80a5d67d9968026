#include "common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analyze/certify.h"
#include "core/crc32.h"
#include "core/preserve.h"
#include "experiments.h"
#include "fsm/benchmarks.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "synth/synthesize.h"

namespace perfbench {

using namespace retest;

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- Tracer ----------------------------------------------------------

int Tracer::Open(const char* layer) {
  spans_.push_back({layer, MsSince(kProcessStart), 0, 0, open_, op_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::Close(int id) {
  Record& span = spans_[static_cast<std::size_t>(id)];
  span.end_ms = MsSince(kProcessStart);
  open_ = span.parent;
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ms +=
        span.end_ms - span.start_ms;
  }
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::map<std::string, double> self;
  for (const Record& span : spans_) {
    self[span.layer] += span.end_ms - span.start_ms - span.child_ms;
  }
  return self;
}

void Tracer::Clear() {
  spans_.clear();
  open_ = -1;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"op\": %d, \"parent\": %d}}",
                  i == 0 ? "" : ",", span.layer, span.start_ms * 1000.0,
                  (span.end_ms - span.start_ms) * 1000.0, span.op,
                  span.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

Tracer& Trace() {
  static Tracer tracer;
  return tracer;
}

// ---- Pairs -----------------------------------------------------------

namespace {

/// The retiming half of bench::PrepareVariant, with a span per call.
Pair Retime(netlist::Circuit original) {
  Tracer& trace = Trace();
  Pair pair;
  pair.name = original.name();
  pair.original = std::move(original);
  pair.build = retime::BuildGraph(pair.original);
  const auto min_period = trace.Span("retime.minimize_period", [&] {
    return retime::MinimizePeriod(pair.build.graph);
  });
  const auto min_reg = trace.Span("retime.minimize_registers", [&] {
    return retime::MinimizeRegisters(pair.build.graph, min_period.period,
                                     &min_period.retiming);
  });
  pair.retiming = min_reg.retiming;
  pair.applied = trace.Span("retime.apply", [&] {
    return retime::ApplyRetiming(pair.original, pair.build, pair.retiming);
  });
  pair.prefix = core::PrefixLength(pair.build.graph, pair.retiming);
  return pair;
}

}  // namespace

Pair PrepareTable2Pair(int index) {
  const bench::Variant& variant =
      bench::Table2Variants()[static_cast<std::size_t>(index)];
  const fsm::Fsm machine = fsm::MakeBenchmarkFsm(variant.fsm);
  synth::SynthesisOptions options;
  options.encoding = variant.encoding;
  options.script = variant.script;
  for (const auto& info : fsm::PaperFsmTable()) {
    if (std::string(info.name) == variant.fsm) {
      options.explicit_reset = info.explicit_reset;
    }
  }
  return Retime(Trace().Span("synth.synthesize", [&] {
    return synth::Synthesize(machine, options);
  }));
}

Pair PrepareRetimedPair(netlist::Circuit original) {
  return Retime(std::move(original));
}

std::string CertifyPair(const Pair& pair) {
  const analyze::CertifyResult result = Trace().Span("analyze.certify", [&] {
    return analyze::CertifyRetiming(pair.original, pair.retimed());
  });
  if (!result.certified) {
    return "certification refused: " + result.diagnostics.ToString();
  }
  if (result.certificate.prefix_length != pair.prefix) {
    return "certificate prefix " +
           std::to_string(result.certificate.prefix_length) +
           " differs from the retiming's " + std::to_string(pair.prefix);
  }
  return "";
}

// ---- Runs ------------------------------------------------------------

Setups RunSetups(bool trace, const std::function<void()>& setup) {
  Tracer& tracer = Trace();
  tracer.Clear();
  tracer.Enable(trace);
  Setups setups;
  double total_s = 0;
  do {
    const Clock::time_point start = Clock::now();
    tracer.Span("bench.setup", setup);
    setups.seconds.push_back(MsSince(start) / 1000.0);
    total_s += setups.seconds.back();
  } while (setups.seconds.size() < 5 && total_s < 8.0);
  setups.layers_ms = tracer.SelfMs();
  tracer.Clear();
  tracer.Enable(false);
  return setups;
}

namespace {

std::string PhaseJson(const Phase& phase) {
  std::string names = "[";
  for (std::size_t i = 0; i < phase.op_names.size(); ++i) {
    names += (i == 0 ? "\"" : ", \"") + JsonEscape(phase.op_names[i]) + "\"";
  }
  names += "]";
  std::string traced = "[";
  for (std::size_t i = 0; i < phase.round_traced.size(); ++i) {
    traced += std::string(i == 0 ? "" : ", ") +
              (phase.round_traced[i] ? "true" : "false");
  }
  traced += "]";
  std::string out = "{\"round_s\": " + DoublesJson(phase.round_s) +
                    ", \"round_traced\": " + traced +
                    ", \"op_ms\": " + DoublesJson(phase.op_ms) +
                    ", \"op_names\": " + names;
  for (const auto& [name, values] : phase.series) {
    out += ", \"" + name + "\": " + DoublesJson(values);
  }
  return out + ", \"metrics_before\": " + phase.metrics_before +
         ", \"metrics_after\": " + phase.metrics_after + "}";
}

}  // namespace

std::string RunJson(const Run& run) {
  long failed = 0;
  double faults = 0, detected = 0, efficient = 0;
  for (const std::string& name : run.phase.op_names) {
    const bool bad =
        std::any_of(run.findings.begin(), run.findings.end(),
                    [&](const Finding& f) { return f.op == name; });
    const auto outcome = run.outcomes.find(name);
    if (bad || outcome == run.outcomes.end()) {
      ++failed;
      continue;
    }
    faults += static_cast<double>(outcome->second.faults);
    detected += static_cast<double>(outcome->second.detected);
    efficient += static_cast<double>(outcome->second.detected +
                                     outcome->second.redundant);
  }
  std::ostringstream out;
  out.precision(17);
  out << "\"setup_s\": " << DoublesJson(run.setups.seconds)
      << ", \"setup_layers_ms\": "
      << LayersJson(run.setups.layers_ms,
                    static_cast<double>(run.setups.seconds.size()))
      << ", \"phase\": " << PhaseJson(run.phase)
      << ", \"attempted\": " << run.phase.op_names.size()
      << ", \"failed\": " << failed
      << ", \"findings\": " << FindingsJson(run.findings)
      << ", \"coverage\": {\"faults\": " << faults
      << ", \"detected\": " << detected << ", \"efficient\": " << efficient
      << "}, \"layers_ms\": " << LayersJson(run.layers_ms, 1.0)
      << ", \"layer_rounds\": " << run.layer_rounds
      << ", \"peak_rss_kb\": " << run.peak_rss_kb;
  return out.str();
}

void AppendGolden(const std::string& path, const std::string& workload,
                  const std::map<std::string, Outcome>& outcomes,
                  const std::string& skip_prefix) {
  std::ofstream out(path, std::ios::app);
  for (const auto& [name, outcome] : outcomes) {
    if (!skip_prefix.empty() && name.rfind(skip_prefix, 0) == 0) continue;
    out << workload << " " << name << " " << outcome.golden << "\n";
  }
}

// ---- Helpers ---------------------------------------------------------

int RoundsFor(double seconds, double nominal_round_s, int ops_per_round,
              int min_ops) {
  const int by_time =
      static_cast<int>(std::lround(seconds / nominal_round_s));
  const int by_ops = (min_ops + ops_per_round - 1) / ops_per_round;
  return std::max({1, by_time, by_ops});
}

std::string NormalizeResult(const std::string& text) {
  std::string out = text;
  for (const std::string key : {"\"id\": ", "\"elapsed_ms\": "}) {
    const std::size_t at = out.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + key.size();
    while (end < out.size() && (std::isdigit(out[end]) || out[end] == '-')) {
      ++end;
    }
    if (out.compare(end, 2, ", ") == 0) end += 2;
    out.erase(at, end - at);
  }
  return out;
}

long JsonLong(const std::string& json, const std::string& key,
              std::size_t from) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
}

std::string JsonEscape(const std::string& text) {
  return bench::JsonEscape(text);
}

std::string DoublesJson(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "]";
  return out.str();
}

std::string LayersJson(const std::map<std::string, double>& layers,
                       double divisor) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool comma = false;
  for (const auto& [layer, ms] : layers) {
    out << (comma ? ", " : "") << "\"" << layer << "\": " << ms / divisor;
    comma = true;
  }
  out << "}";
  return out.str();
}

std::string FindingsJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") +
           JsonEscape(findings[i].op + ": " + findings[i].what) + "\"";
  }
  return out + "]";
}

std::uint32_t DetectionsCrc(const std::vector<bool>& detected,
                            const std::vector<int>& times) {
  std::string bytes;
  bytes.reserve(detected.size() * 8);
  for (std::size_t i = 0; i < detected.size(); ++i) {
    bytes += detected[i] ? '1' : '0';
    bytes += std::to_string(times[i]);
    bytes += ',';
  }
  return core::Crc32(bytes);
}

std::map<std::string, std::string> ReadGolden(const std::string& path,
                                              const std::string& workload) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, op, value;
    if (fields >> name >> op >> value && name == workload) golden[op] = value;
  }
  return golden;
}

}  // namespace perfbench
