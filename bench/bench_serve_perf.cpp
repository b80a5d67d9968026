// Serving-layer performance harness (core/server, docs/SERVING.md).
//
// Workload: an in-process Server on a loopback TCP port (port 0, so
// runs never collide), fed the fixed-limit quick ATPG config over the
// first Table II circuits — deterministic jobs arriving over the
// wire: framed SUBMIT payloads built with the canonical serializer,
// results pushed back as JSON frames.  What this measures is the serving overhead and the
// concurrency of the daemon path (framing, parsing, admission, worker
// dispatch, result push), not the ATPG engine itself.
//
// Measured: a client ladder.  Each ladder point submits the SAME J
// named jobs, split round-robin across C concurrent client
// connections, and waits for every result frame.  Reported per point:
// wall ms and jobs/s.  The acceptance claim rides on the verdict, not
// the numbers: for every job name, the result object must be
// byte-identical across ALL ladder points (ids and wall-clock fields
// masked) — "N concurrent clients" must not change a single result
// byte.  The harness fails loudly on a mismatch.
//
// Emits BENCH_serve.json (ladder points incl. the >= 2-client
// throughput, per-point jobs/s, identity verdict, serve.* metrics)
// into the current directory.
//
// Modes:
//   (default)   4 circuits x 24 jobs, clients {1, 2, 4}
//   --smoke     2 circuits x 6 jobs, clients {1, 2} (ctest budget);
//               exit code is the identity verdict
//
// Robustness (docs/ROBUSTNESS.md): a failure mid-ladder still flushes
// the finished points with an "error" field.  Exit codes: 0 ok,
// 1 identity mismatch, 2 fatal before any data, 3 partial,
// 4 JSON unwritable.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "core/metrics.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/server.h"
#include "core/server/service.h"
#include "core/thread_pool.h"
#include "experiments.h"
#include "netlist/bench_io.h"

namespace {

using namespace retest;
using namespace retest::core::server;

constexpr long kBudgetMs = 600'000;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The J submit payloads: job j runs the quick deterministic ATPG pass
/// on circuit j % V under the unique name "job<j>" — the key results
/// are compared under.
std::vector<std::string> BuildPayloads(std::size_t num_variants,
                                       std::size_t num_jobs) {
  const auto& all = bench::Table2Variants();
  std::vector<std::string> netlists;
  for (std::size_t v = 0; v < num_variants; ++v) {
    const bench::Prepared prepared = bench::PrepareVariant(all[v]);
    netlists.push_back(netlist::WriteBenchString(prepared.original));
  }
  std::vector<std::string> payloads;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.kind = JobKind::kAtpg;
    spec.threads = 1;
    spec.netlist = netlists[j % netlists.size()];
    spec.atpg.style = atpg::AtpgStyle::kForwardIla;
    spec.atpg.random_rounds = 0;
    spec.atpg.backtracks_per_fault = 2;
    spec.atpg.max_frames = 16;
    spec.atpg.redundancy_check = false;
    spec.atpg.time_budget_ms = kBudgetMs;
    payloads.push_back(BuildSubmitPayload(spec));
  }
  return payloads;
}

/// Blanks the run-dependent fields of a result object: the job id
/// (submission order differs across ladder points) and the wall-clock
/// elapsed_ms.  Everything else must be byte-identical.
std::string MaskVolatile(std::string json) {
  for (const char* key : {"\"id\": ", "\"elapsed_ms\": "}) {
    std::size_t at = 0;
    while ((at = json.find(key, at)) != std::string::npos) {
      std::size_t digit = at + std::strlen(key);
      std::size_t end = digit;
      while (end < json.size() &&
             (std::isdigit(static_cast<unsigned char>(json[end])) != 0)) {
        ++end;
      }
      json.replace(digit, end - digit, 1, '_');
      at = digit;
    }
  }
  return json;
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return json.substr(start, json.find('"', start) - start);
}

std::string JsonType(const std::string& json) {
  return JsonField(json, "type");
}

/// A client blocked on one frame for longer than this counts as a
/// hang: far beyond any watchdog deadline or drain the server could
/// legitimately be sitting on, so the serving layer stopped answering.
constexpr double kHangThresholdMs = 60'000;

/// Per-client observability for the overload / hang verdicts.
struct ClientOutcome {
  long retries = 0;        ///< SUBMITs re-sent after queue_full.
  double max_wait_ms = 0;  ///< Longest single blocking frame read.
};

/// One client connection: submit `payloads` (each awaiting its
/// accepted frame, with bounded backoff-retry on queue_full rejects),
/// collect one result frame per submission into `results` (keyed by
/// job name, volatile fields masked).  Returns false on any protocol
/// failure.
bool RunClientThread(int port, const std::vector<std::string>& payloads,
                     std::map<std::string, std::string>& results,
                     ClientOutcome& outcome) {
  std::string error;
  const int fd = ConnectTcp(port, error);
  if (fd < 0) return false;

  FrameDecoder decoder;
  std::string payload;
  bool ok = true;
  const auto read_frame = [&]() -> bool {
    const double start = NowMs();
    const bool got =
        ReadFrame(fd, decoder, payload, error) == FrameDecoder::Next::kFrame;
    outcome.max_wait_ms = std::max(outcome.max_wait_ms, NowMs() - start);
    return got;
  };
  if (!read_frame() || JsonType(payload) != "hello") ok = false;

  std::size_t outstanding = 0;  // Accepted jobs still owing a result.
  for (const std::string& request : payloads) {
    if (!ok) break;
    int attempt = 0;
    bool placed = false;
    while (ok && !placed) {
      if (!WriteFrame(fd, request)) {
        ok = false;
        break;
      }
      bool responded = false;
      while (ok && !responded) {
        if (!read_frame()) {
          ok = false;
          break;
        }
        const std::string type = JsonType(payload);
        if (type == "result") {
          results[JsonField(payload, "name")] = MaskVolatile(payload);
          --outstanding;
        } else if (type == "accepted") {
          ++outstanding;
          placed = true;
          responded = true;
        } else if (type == "rejected") {
          responded = true;
          if (JsonField(payload, "reason") == "queue_full" && attempt < 8) {
            ++outcome.retries;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5L << std::min(attempt, 6)));
            ++attempt;
          } else {
            ok = false;
          }
        } else if (type == "error") {
          ok = false;
        }
      }
    }
  }
  while (ok && outstanding > 0) {
    if (!read_frame()) {
      ok = false;
      break;
    }
    const std::string type = JsonType(payload);
    if (type == "result") {
      results[JsonField(payload, "name")] = MaskVolatile(payload);
      --outstanding;
    } else if (type == "rejected" || type == "error") {
      ok = false;
    }
  }
  close(fd);
  return ok;
}

/// One counter's current total out of the metrics registry (0 when the
/// counter never registered — e.g. a REPRO_CHAOS_BUILD=OFF binary).
long CounterTotal(const char* name) {
  for (const auto& counter : core::metrics::Collect().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

struct LadderPoint {
  int clients = 0;
  double ms = 0;
  double jobs_per_s = 0;
};

bool EmitJson(std::size_t num_jobs, int workers,
              const std::vector<LadderPoint>& ladder, bool identical,
              bool smoke, const std::string& error, long client_retries,
              double max_wait_ms, bool hang_detected) {
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return false;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  if (!error.empty()) {
    std::fprintf(f, "  \"error\": \"%s\",\n", bench::JsonEscape(error).c_str());
  }
  std::fprintf(f, "  \"cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"service_workers\": %d,\n", workers);
  std::fprintf(f, "  \"jobs_per_point\": %zu,\n", num_jobs);
  std::fprintf(f, "  \"client_retries\": %ld,\n", client_retries);
  std::fprintf(f, "  \"shed\": %ld,\n",
               CounterTotal("serve.shed.deadline_expired"));
  std::fprintf(f, "  \"max_client_wait_ms\": %.1f,\n", max_wait_ms);
  std::fprintf(f, "  \"hang_detected\": %s,\n",
               hang_detected ? "true" : "false");
  std::fprintf(f, "  \"client_ladder\": [\n");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::fprintf(f,
                 "    {\"clients\": %d, \"ms\": %.3f, "
                 "\"jobs_per_s\": %.1f}%s\n",
                 ladder[i].clients, ladder[i].ms, ladder[i].jobs_per_s,
                 i + 1 < ladder.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"identical_results\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"metrics\": %s\n}\n", core::metrics::ToJson(2).c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t num_variants = smoke ? 2 : 4;
  const std::size_t num_jobs = smoke ? 6 : 24;
  const std::vector<int> clients_ladder =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  // Pin 4 workers on a single-CPU host so the concurrency claim is
  // exercised even where wall-clock speedup is impossible.
  const int workers = core::ResolveThreadCount(0) > 1
                          ? core::ResolveThreadCount(0)
                          : 4;

  std::printf("serve layer perf (%zu jobs over %zu circuits, workers=%d%s)\n",
              num_jobs, num_variants, workers, smoke ? ", --smoke" : "");

  std::vector<LadderPoint> ladder;
  bool identical = true;
  std::string error;
  long client_retries = 0;
  double max_wait_ms = 0;
  int exit_code = 0;
  try {
    const std::vector<std::string> payloads =
        BuildPayloads(num_variants, num_jobs);

    ServerOptions options;
    options.tcp_port = 0;  // Any free loopback port.
    options.service.num_workers = workers;
    options.service.max_queue = num_jobs + 8;
    Server server(options);
    core::DiagnosticList diags;
    if (!server.Start(diags)) {
      std::fprintf(stderr, "bench_serve_perf: %s\n",
                   diags.ToString().c_str());
      return 2;
    }
    std::thread run_thread([&server] { server.Run(); });
    const int port = server.port();

    // reference[name] = masked result from the 1-client point; every
    // later point must reproduce it byte for byte.
    std::map<std::string, std::string> reference;
    for (const int clients : clients_ladder) {
      // Round-robin split of the same J payloads across C clients.
      std::vector<std::vector<std::string>> shares(clients);
      for (std::size_t j = 0; j < payloads.size(); ++j) {
        shares[j % clients].push_back(payloads[j]);
      }
      std::vector<std::map<std::string, std::string>> results(clients);
      std::vector<ClientOutcome> outcomes(clients);
      std::vector<char> ok(clients, 1);
      const double start = NowMs();
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          ok[c] =
              RunClientThread(port, shares[c], results[c], outcomes[c]) ? 1
                                                                        : 0;
        });
      }
      for (auto& thread : threads) thread.join();
      const double ms = NowMs() - start;

      std::map<std::string, std::string> merged;
      bool point_ok = true;
      for (int c = 0; c < clients; ++c) {
        if (ok[c] == 0) point_ok = false;
        merged.insert(results[c].begin(), results[c].end());
        client_retries += outcomes[c].retries;
        max_wait_ms = std::max(max_wait_ms, outcomes[c].max_wait_ms);
      }
      if (!point_ok || merged.size() != payloads.size()) {
        throw std::runtime_error("ladder point " + std::to_string(clients) +
                                 " lost results (" +
                                 std::to_string(merged.size()) + "/" +
                                 std::to_string(payloads.size()) + ")");
      }
      if (reference.empty()) {
        reference = merged;
      } else {
        for (const auto& [name, json] : merged) {
          if (reference.at(name) != json) {
            identical = false;
            std::fprintf(stderr, "clients=%d: %s differs from 1-client\n",
                         clients, name.c_str());
          }
        }
      }
      ladder.push_back({clients, ms, 1000.0 * payloads.size() / ms});
      std::printf("  clients=%-2d %9.1f ms  %7.1f jobs/s%s\n", clients, ms,
                  ladder.back().jobs_per_s, identical ? "" : "  MISMATCH");
      std::fflush(stdout);
    }

    server.Shutdown();
    run_thread.join();
  } catch (const std::exception& e) {
    error = e.what();
    std::fprintf(stderr, "bench_serve_perf: %s\n", error.c_str());
  }

  // A client that sat on one frame read past the hang threshold means
  // the serving layer stopped answering — a failed verdict even if the
  // results eventually arrived byte-identical.
  const bool hang_detected = max_wait_ms > kHangThresholdMs;
  if (!EmitJson(num_jobs, workers, ladder, identical, smoke, error,
                client_retries, max_wait_ms, hang_detected)) {
    return 4;
  }
  std::printf(
      "wrote BENCH_serve.json (%zu ladder points%s, retries=%ld, "
      "max wait %.1f ms)\n",
      ladder.size(), error.empty() ? "" : ", partial", client_retries,
      max_wait_ms);
  if (!error.empty()) exit_code = ladder.empty() ? 2 : 3;
  if (hang_detected) {
    std::fprintf(stderr,
                 "bench_serve_perf: HANG: a client waited %.1f ms "
                 "(threshold %.0f ms)\n",
                 max_wait_ms, kHangThresholdMs);
    exit_code = 1;
  }
  if (!identical) exit_code = 1;
  return exit_code;
}
