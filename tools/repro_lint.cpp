// repro_lint: static netlist analyzer CLI over src/analyze.
//
//   repro_lint [--passes a,b,...] [--scoap] [--certify RETIMED] FILE
//   repro_lint --list
//
// Parses FILE as .bench, runs the lint pass registry with findings
// anchored to source lines, optionally prints the SCOAP testability
// summary, and optionally certifies RETIMED as a retiming of FILE.
//
// Exit codes:
//   0  clean (parsed, no lint findings, certification accepted if asked)
//   1  lint findings
//   2  parse or structural errors (FILE or RETIMED malformed)
//   3  certification refused
//   4  usage error
//
// A parse failure trumps lint findings; a certification refusal trumps
// lint findings (the pair claim is the stronger statement).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/certify.h"
#include "analyze/lint.h"
#include "analyze/scoap.h"
#include "netlist/bench_io.h"
#include "netlist/check.h"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitParseError = 2;
constexpr int kExitCertifyRefused = 3;
constexpr int kExitUsage = 4;

void PrintUsage(std::ostream& out) {
  out << "usage: repro_lint [options] FILE.bench\n"
         "       repro_lint --list\n"
         "\n"
         "options:\n"
         "  --list             list registered lint passes and exit\n"
         "  --passes A,B,...   run only the named passes\n"
         "  --scoap            print the SCOAP testability summary (JSON)\n"
         "  --certify RETIMED  certify RETIMED.bench as a retiming of FILE\n"
         "  --help             show this message\n";
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// Parses `path`, printing every diagnostic; engaged only on success.
std::optional<retest::netlist::BenchParseResult> ParseFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "repro_lint: cannot open " << path << '\n';
    return std::nullopt;
  }
  auto parsed = retest::netlist::ParseBench(in, path, path);
  if (!parsed.ok()) {
    std::cerr << parsed.diagnostics.ToString() << '\n';
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string certify_file;
  std::vector<std::string> passes;
  bool want_scoap = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return kExitClean;
    } else if (arg == "--list") {
      for (const auto& pass : retest::analyze::AllLintPasses()) {
        std::printf("%-16s %s\n", std::string(pass.name).c_str(),
                    std::string(pass.summary).c_str());
      }
      return kExitClean;
    } else if (arg == "--scoap") {
      want_scoap = true;
    } else if (arg == "--passes") {
      if (++i >= argc) {
        std::cerr << "repro_lint: --passes needs an argument\n";
        return kExitUsage;
      }
      passes = SplitCommas(argv[i]);
    } else if (arg == "--certify") {
      if (++i >= argc) {
        std::cerr << "repro_lint: --certify needs an argument\n";
        return kExitUsage;
      }
      certify_file = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "repro_lint: unknown option " << arg << '\n';
      PrintUsage(std::cerr);
      return kExitUsage;
    } else if (file.empty()) {
      file = arg;
    } else {
      std::cerr << "repro_lint: more than one input file\n";
      return kExitUsage;
    }
  }
  if (file.empty()) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }

  auto parsed = ParseFile(file);
  if (!parsed) return kExitParseError;
  const retest::netlist::Circuit& circuit = *parsed->circuit;

  retest::analyze::LintOptions options;
  options.source = file;
  options.definition_lines = &parsed->definition_lines;
  options.passes = passes;

  retest::analyze::LintResult lint;
  try {
    lint = retest::analyze::RunLint(circuit, options);
  } catch (const std::invalid_argument& e) {
    std::cerr << "repro_lint: " << e.what() << '\n';
    return kExitUsage;
  }
  if (!lint.clean()) std::cout << lint.diagnostics.ToString() << '\n';
  for (const auto& [pass, count] : lint.findings_per_pass) {
    std::fprintf(stderr, "pass %-16s %d finding%s\n", pass.c_str(), count,
                 count == 1 ? "" : "s");
  }

  if (want_scoap) {
    const auto check = retest::netlist::Check(circuit);
    if (!check.ok()) {
      std::cerr << check.diagnostics.ToString() << '\n';
      return kExitParseError;
    }
    const auto scoap = retest::analyze::ComputeScoap(circuit);
    std::cout << retest::analyze::Summarize(scoap).ToJson() << '\n';
  }

  if (!certify_file.empty()) {
    auto retimed = ParseFile(certify_file);
    if (!retimed) return kExitParseError;
    const auto result =
        retest::analyze::CertifyRetiming(circuit, *retimed->circuit);
    if (!result.certified) {
      std::cerr << result.diagnostics.ToString() << '\n';
      std::cerr << "repro_lint: certification REFUSED\n";
      return kExitCertifyRefused;
    }
    std::cout << result.certificate.ToString();
    if (!result.diagnostics.empty()) {
      std::cerr << result.diagnostics.ToString() << '\n';
    }
  }

  return lint.clean() ? kExitClean : kExitFindings;
}
