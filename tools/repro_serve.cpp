// repro_serve: the ATPG-as-a-service daemon and its client/batch modes.
//
// Usage:
//   repro_serve --unix PATH [--tcp PORT] [daemon options]
//   repro_serve --tcp PORT [daemon options]
//   repro_serve --client PATH JOBFILE...
//   repro_serve --client-tcp PORT JOBFILE...
//   repro_serve --batch JOBFILE... [--spool DIR] [--workers N]
//   repro_serve --dump-table2 NAME DIR
//
// Daemon options: --spool DIR, --workers N, --max-queue N,
// --progress-ms MS.  A JOBFILE holds one SUBMIT request payload
// exactly as it goes on the wire (docs/SERVING.md has a worked one).
//
// The batch mode runs the same core::server::Service the daemon runs —
// no sockets, results printed to stdout one JSON object per line — so
// `--batch job` and a daemon round-trip of the same job produce
// byte-identical result objects.  scripts/serve_smoke.sh leans on that
// to check the daemon against table2_atpg-style batch results.
//
// --dump-table2 synthesizes one Table II original/retimed pair through
// the shared bench harness and writes NAME.orig.bench and
// NAME.ret.bench into DIR, giving tests and the smoke script real
// paper circuits to submit.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.h"
#include "core/metrics.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/server.h"
#include "core/server/service.h"
#include "experiments.h"
#include "netlist/bench_io.h"

namespace {

using namespace retest;
using namespace retest::core::server;

void PrintUsage(std::ostream& out) {
  out << "usage: repro_serve --unix PATH | --tcp PORT\n"
         "                   [--spool DIR] [--workers N] [--max-queue N]\n"
         "                   [--progress-ms MS]\n"
         "       repro_serve --client PATH JOBFILE...\n"
         "       repro_serve --client-tcp PORT JOBFILE...\n"
         "                   [--retry N] [--retry-base-ms MS]\n"
         "       repro_serve --batch JOBFILE... [--spool DIR] [--workers N]\n"
         "       repro_serve --dump-table2 NAME DIR\n"
         "\n"
         "A JOBFILE holds one SUBMIT payload (docs/SERVING.md).\n"
         "--retry N retries queue_full/draining rejects, not_ready\n"
         "results and transient transport errors up to N times per job\n"
         "file, with capped exponential backoff from --retry-base-ms\n"
         "(default 50).\n";
}

Server* g_server = nullptr;

extern "C" void HandleTerm(int) {
  if (g_server != nullptr) g_server->NotifyShutdown();
}

std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Pulls `"key": <number>` out of a response payload.  The tool reads
/// only numbers it wrote itself (the repo emits JSON but never parses
/// it in library code), so a string scan is all the client needs.
long JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Pulls `"key": "value"` out of a response payload.
std::string JsonString(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = json.find('"', start);
  return json.substr(start, end - start);
}

std::string JsonType(const std::string& json) {
  return JsonString(json, "type");
}

/// Where the client connects (one of the two is set).
struct ClientEndpoint {
  std::string unix_path;
  int tcp_port = -1;
};

struct RetryOptions {
  int retries = 0;    ///< Extra attempts after the first, per job file.
  long base_ms = 50;  ///< Backoff base; doubles per attempt, capped.
};

/// Deterministic capped exponential backoff: base * 2^attempt up to
/// 2 s, plus a jitter slot hashed from (attempt, salt) — replayable,
/// and concurrent clients with different salts still de-synchronize.
long BackoffMs(const RetryOptions& retry, int attempt, unsigned salt) {
  const long base = std::max(1L, retry.base_ms);
  long delay = base;
  for (int i = 0; i < attempt && delay < 2000; ++i) delay *= 2;
  delay = std::min(delay, 2000L);
  const unsigned mix =
      (static_cast<unsigned>(attempt) + 1u) * 2654435761u ^ salt * 40503u;
  return delay + static_cast<long>(mix % static_cast<unsigned>(base));
}

/// A `result` payload that ends a job without being a defect.
bool ResultIsClean(const std::string& payload) {
  return payload.find("\"status\": \"ok\"") != std::string::npos ||
         payload.find("\"status\": \"cancelled\"") != std::string::npos;
}

/// Sends every job file over one connection and prints each received
/// frame payload as one line until all submissions resolved.
///
/// Overload resilience: `retry` bounds how often one job file is
/// re-attempted after a queue_full/draining reject, a not_ready RESULT
/// answer, or a transient transport failure (connect/send/read) —
/// each with capped exponential backoff + deterministic jitter.  A
/// connection lost while results were still owed is survived by
/// reconnecting and polling RESULT (the spool makes finished results
/// outlive the submitting connection).
int RunClient(const ClientEndpoint& endpoint,
              const std::vector<std::string>& job_files,
              const RetryOptions& retry) {
  // Re-created per connection (a fresh stream must not inherit the
  // previous connection's partial frame bytes).
  std::optional<FrameDecoder> decoder;
  decoder.emplace();
  std::string payload;
  std::string error;
  long submit_retries = 0;
  long transport_retries = 0;
  long result_retries = 0;
  std::set<long> pending;  // accepted job ids awaiting result frames
  bool failed = false;
  int fd = -1;

  const auto summary = [&] {
    if (submit_retries + transport_retries + result_retries == 0) return;
    RETEST_COUNTER_ADD("client.retry.submit", "retries", "client",
                       "SUBMITs re-sent after queue_full/draining",
                       submit_retries);
    RETEST_COUNTER_ADD("client.retry.transport", "retries", "client",
                       "reconnects after transient transport failures",
                       transport_retries);
    RETEST_COUNTER_ADD("client.retry.result", "retries", "client",
                       "RESULT polls re-sent after not_ready",
                       result_retries);
    std::fprintf(stderr,
                 "repro_serve: client retries: submit=%ld transport=%ld "
                 "result=%ld\n",
                 submit_retries, transport_retries, result_retries);
  };
  const auto drop_connection = [&] {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  };
  const auto sleep_backoff = [&](int attempt, unsigned salt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(BackoffMs(retry, attempt, salt)));
  };
  const auto connect_once = [&]() -> bool {
    fd = endpoint.unix_path.empty()
             ? ConnectTcp(endpoint.tcp_port, error)
             : ConnectUnix(endpoint.unix_path, error);
    if (fd < 0) return false;
    decoder.emplace();  // A fresh stream needs a fresh decoder.
    if (ReadFrame(fd, *decoder, payload, error) !=
            FrameDecoder::Next::kFrame ||
        JsonType(payload) != "hello") {
      drop_connection();
      if (error.empty()) error = "connection opened without a hello frame";
      return false;
    }
    std::printf("%s\n", payload.c_str());
    return true;
  };

  for (std::size_t file_index = 0; file_index < job_files.size();
       ++file_index) {
    const std::string& path = job_files[file_index];
    const auto request = ReadWholeFile(path);
    if (!request) {
      std::fprintf(stderr, "repro_serve: cannot read %s\n", path.c_str());
      drop_connection();
      summary();
      return 2;
    }
    const unsigned salt = static_cast<unsigned>(file_index + 1);
    int attempt = 0;
    bool resolved = false;
    while (!resolved) {
      if (fd < 0 && !connect_once()) {
        if (attempt >= retry.retries) {
          std::fprintf(stderr, "repro_serve: %s\n", error.c_str());
          summary();
          return 2;
        }
        ++transport_retries;
        sleep_backoff(attempt++, salt);
        continue;
      }
      if (!WriteFrame(fd, *request)) {
        drop_connection();
        if (attempt >= retry.retries) {
          std::fprintf(stderr, "repro_serve: cannot send %s\n", path.c_str());
          summary();
          return 2;
        }
        ++transport_retries;
        sleep_backoff(attempt++, salt);
        continue;
      }
      // Wait for this request's direct response.  Pushed frames — the
      // progress ticker (recognizable by its embedded metrics
      // snapshot) and result frames of earlier accepted submissions —
      // resolve in passing and never end the wait.
      bool responded = false;
      while (!responded) {
        if (ReadFrame(fd, *decoder, payload, error) !=
            FrameDecoder::Next::kFrame) {
          break;  // Transport loss: retry the whole job file.
        }
        std::printf("%s\n", payload.c_str());
        std::fflush(stdout);
        const std::string type = JsonType(payload);
        if (type == "accepted") {
          pending.insert(JsonNumber(payload, "id"));
          responded = resolved = true;
        } else if (type == "rejected") {
          const std::string reason = JsonString(payload, "reason");
          if ((reason == "queue_full" || reason == "draining") &&
              attempt < retry.retries) {
            ++submit_retries;
            responded = true;
            sleep_backoff(attempt++, salt);
          } else {
            failed = true;
            responded = resolved = true;
          }
        } else if (type == "error") {
          if (JsonString(payload, "reason") == "not_ready" &&
              attempt < retry.retries) {
            ++result_retries;
            responded = true;
            sleep_backoff(attempt++, salt);
          } else {
            failed = true;
            responded = resolved = true;
          }
        } else if (type == "result") {
          const long id = JsonNumber(payload, "id");
          if (pending.erase(id) != 0) {
            // Pushed completion of an earlier submission.
            if (!ResultIsClean(payload)) failed = true;
          } else {
            // Direct answer to a RESULT job file.
            if (!ResultIsClean(payload)) failed = true;
            responded = resolved = true;
          }
        } else if (type == "progress") {
          if (payload.find("\"metrics\":") == std::string::npos) {
            responded = resolved = true;  // QUERY / CANCEL answer.
          }
        } else if (type == "pong" || type == "stats") {
          responded = resolved = true;
        } else if (type == "goodbye") {
          std::fprintf(stderr,
                       "repro_serve: server is draining, %s not resolved\n",
                       path.c_str());
          drop_connection();
          summary();
          return failed ? 1 : 2;
        }
      }
      if (!responded) {
        drop_connection();
        if (attempt >= retry.retries) {
          std::fprintf(stderr, "repro_serve: connection lost: %s\n",
                       error.c_str());
          summary();
          return 2;
        }
        ++transport_retries;
        sleep_backoff(attempt++, salt);
      }
    }
  }

  // Every submission resolved; collect the owed result frames.  While
  // the original connection lives they are pushed; once it dies, poll
  // RESULT over fresh connections (spool-backed results survive).
  int attempt = 0;
  while (!pending.empty()) {
    if (fd >= 0) {
      if (ReadFrame(fd, *decoder, payload, error) ==
          FrameDecoder::Next::kFrame) {
        std::printf("%s\n", payload.c_str());
        std::fflush(stdout);
        const std::string type = JsonType(payload);
        if (type == "result") {
          if (pending.erase(JsonNumber(payload, "id")) != 0 &&
              !ResultIsClean(payload)) {
            failed = true;
          }
        }
        continue;
      }
      drop_connection();  // Fall through to the polling path.
    }
    const long id = *pending.begin();
    if (!connect_once()) {
      if (attempt >= retry.retries) {
        std::fprintf(stderr,
                     "repro_serve: %s; gave up on %zu owed result(s)\n",
                     error.c_str(), pending.size());
        summary();
        return 2;
      }
      ++transport_retries;
      sleep_backoff(attempt++, 0x7f4au);
      continue;
    }
    char poll[64];
    std::snprintf(poll, sizeof poll, "REPRO-SERVE/1 RESULT\nid: %ld\n\n", id);
    if (!WriteFrame(fd, poll)) {
      drop_connection();
      if (attempt >= retry.retries) {
        std::fprintf(stderr, "repro_serve: cannot poll result %ld\n", id);
        summary();
        return 2;
      }
      ++transport_retries;
      sleep_backoff(attempt++, 0x7f4au);
      continue;
    }
    bool answered = false;
    while (!answered) {
      if (ReadFrame(fd, *decoder, payload, error) !=
          FrameDecoder::Next::kFrame) {
        drop_connection();
        break;
      }
      std::printf("%s\n", payload.c_str());
      std::fflush(stdout);
      const std::string type = JsonType(payload);
      if (type == "result" && JsonNumber(payload, "id") == id) {
        if (!ResultIsClean(payload)) failed = true;
        pending.erase(id);
        answered = true;
        attempt = 0;
      } else if (type == "error") {
        if (JsonString(payload, "reason") == "not_ready" &&
            attempt < retry.retries) {
          ++result_retries;
          sleep_backoff(attempt++, 0x7f4au);
          // Re-poll the same id on this connection.
          if (!WriteFrame(fd, poll)) {
            drop_connection();
            break;
          }
        } else {
          failed = true;
          pending.erase(id);
          answered = true;
          attempt = 0;
        }
      } else if (type == "goodbye") {
        drop_connection();
        break;
      }
    }
    if (!answered) {
      if (attempt >= retry.retries) {
        std::fprintf(stderr,
                     "repro_serve: gave up on %zu owed result(s)\n",
                     pending.size());
        summary();
        return 2;
      }
      ++transport_retries;
      sleep_backoff(attempt++, 0x7f4au);
    }
  }
  drop_connection();
  summary();
  return failed ? 1 : 0;
}

int RunBatch(const std::vector<std::string>& job_files,
             const ServiceOptions& options) {
  Service service(options);
  int exit_code = 0;
  for (const std::string& path : job_files) {
    const auto payload = ReadWholeFile(path);
    if (!payload) {
      std::fprintf(stderr, "repro_serve: cannot read %s\n", path.c_str());
      return 2;
    }
    core::DiagnosticList diags;
    const auto request = ParseRequest(*payload, diags);
    if (!request || request->verb != Verb::kSubmit) {
      std::fprintf(stderr, "repro_serve: %s is not a SUBMIT payload:\n%s\n",
                   path.c_str(), diags.ToString().c_str());
      return 2;
    }
    const Service::Submission submission = service.Submit(request->spec);
    if (!submission.accepted) {
      std::fprintf(stderr, "repro_serve: %s rejected (%s):\n%s\n",
                   path.c_str(), submission.reject_reason.c_str(),
                   submission.diagnostics.ToString().c_str());
      exit_code = 1;
      continue;
    }
    const auto record = service.Wait(submission.id);
    if (!record || record->result_json.empty()) {
      std::fprintf(stderr, "repro_serve: job %llu produced no result\n",
                   static_cast<unsigned long long>(submission.id));
      exit_code = 1;
      continue;
    }
    std::printf("%s\n", record->result_json.c_str());
    if (record->state != core::server::JobState::kDone) exit_code = 1;
  }
  return exit_code;
}

int DumpTable2(const std::string& name, const std::string& dir) {
  for (const bench::Variant& variant : bench::Table2Variants()) {
    if (std::string(variant.fsm) != name) continue;
    const bench::Prepared prepared = bench::PrepareVariant(variant);
    const std::string orig_path = dir + "/" + name + ".orig.bench";
    const std::string ret_path = dir + "/" + name + ".ret.bench";
    std::ofstream orig(orig_path), ret(ret_path);
    netlist::WriteBench(prepared.original, orig);
    netlist::WriteBench(prepared.retimed, ret);
    if (!orig.flush() || !ret.flush()) {
      std::fprintf(stderr, "repro_serve: cannot write into %s\n",
                   dir.c_str());
      return 2;
    }
    std::printf("%s\n%s\n", orig_path.c_str(), ret_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "repro_serve: no Table II variant named %s\n",
               name.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  std::string client_unix;
  int client_tcp = -1;
  RetryOptions retry;
  bool batch = false;
  std::string dump_name;
  std::string dump_dir;
  std::vector<std::string> job_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "repro_serve: %s needs an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--unix") {
      options.unix_path = next("--unix");
    } else if (arg == "--tcp") {
      options.tcp_port = std::atoi(next("--tcp"));
    } else if (arg == "--spool") {
      options.service.spool_dir = next("--spool");
    } else if (arg == "--workers") {
      options.service.num_workers = std::atoi(next("--workers"));
    } else if (arg == "--max-queue") {
      options.service.max_queue =
          static_cast<std::size_t>(std::atol(next("--max-queue")));
    } else if (arg == "--progress-ms") {
      options.progress_ms = std::atol(next("--progress-ms"));
    } else if (arg == "--client") {
      client_unix = next("--client");
    } else if (arg == "--client-tcp") {
      client_tcp = std::atoi(next("--client-tcp"));
    } else if (arg == "--retry") {
      retry.retries = std::atoi(next("--retry"));
    } else if (arg == "--retry-base-ms") {
      retry.base_ms = std::atol(next("--retry-base-ms"));
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg == "--dump-table2") {
      dump_name = next("--dump-table2");
      dump_dir = next("--dump-table2 DIR");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "repro_serve: unknown option %s\n", arg.c_str());
      PrintUsage(std::cerr);
      return 2;
    } else {
      job_files.push_back(arg);
    }
  }

  if (!dump_name.empty()) return DumpTable2(dump_name, dump_dir);

  if (!client_unix.empty() || client_tcp >= 0) {
    if (job_files.empty()) {
      std::fprintf(stderr, "repro_serve: client mode needs JOBFILEs\n");
      return 2;
    }
    ClientEndpoint endpoint;
    endpoint.unix_path = client_unix;
    endpoint.tcp_port = client_tcp;
    return RunClient(endpoint, job_files, retry);
  }

  if (batch) {
    if (job_files.empty()) {
      std::fprintf(stderr, "repro_serve: --batch needs JOBFILEs\n");
      return 2;
    }
    return RunBatch(job_files, options.service);
  }

  if (options.unix_path.empty() && options.tcp_port < 0) {
    PrintUsage(std::cerr);
    return 2;
  }

  Server server(options);
  g_server = &server;
  std::signal(SIGTERM, HandleTerm);
  std::signal(SIGINT, HandleTerm);
  std::signal(SIGPIPE, SIG_IGN);

  core::DiagnosticList diags;
  if (!server.Start(diags)) {
    std::fprintf(stderr, "repro_serve: cannot start:\n%s\n",
                 diags.ToString().c_str());
    return 2;
  }
  if (server.port() >= 0) {
    std::printf("listening tcp 127.0.0.1:%d\n", server.port());
  }
  if (!options.unix_path.empty()) {
    std::printf("listening unix %s\n", options.unix_path.c_str());
  }
  std::fflush(stdout);
  server.Run();
  // Armed chaos reports what it did on the way out, from the chaos
  // layer's own counters (present whether or not metrics are built).
  if (core::chaos::Enabled()) {
    std::fprintf(stderr, "repro chaos: %ld injected\n",
                 core::chaos::TotalInjected());
  }
  return 0;
}
