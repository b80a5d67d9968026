// End-to-end daemon contract over real sockets: hello/submit/accepted/
// result round-trips on AF_UNIX and TCP, push delivery of result
// frames, QUERY/RESULT/CANCEL/PING/STATS answers, the periodic
// progress stream, malformed- and oversized-frame rejection followed
// by hangup, concurrent clients receiving bit-identical results for
// identical jobs, result frames that do not depend on how many TCP
// clients share the jobs, and goodbye-on-shutdown.  The crash-recovery
// (kill -9) path is covered twice elsewhere: in-process in
// serve_test.cpp (fabricated crash scene) and against the real daemon
// binary in scripts/serve_smoke.sh.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "core/crc32.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/server.h"
#include "core/testset.h"
#include "experiments.h"
#include "netlist/bench_io.h"
#include "tests/random_circuits.h"

namespace retest::core::server {
namespace {

std::string TempDir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("serve_e2e_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

atpg::AtpgOptions QuickAtpg() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 0;
  options.backtracks_per_fault = 2;
  options.max_frames = 16;
  options.redundancy_check = false;
  options.time_budget_ms = 600'000;
  return options;
}

JobSpec QuickSpec(std::uint64_t seed, const std::string& name) {
  retest::testing::RandomCircuitOptions circuit_options;
  circuit_options.num_inputs = 5;
  circuit_options.num_dffs = 4;
  circuit_options.num_gates = 30;
  JobSpec spec;
  spec.name = name;
  spec.atpg = QuickAtpg();
  spec.netlist = netlist::WriteBenchString(
      retest::testing::MakeRandomCircuit(seed, circuit_options));
  return spec;
}

std::string Field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  std::size_t end = start;
  if (json[start] == '"') {
    ++start;
    end = json.find('"', start);
  } else {
    end = json.find_first_of(",}", start);
  }
  return json.substr(start, end - start);
}

/// A connected client with its own decoder and a receive timeout so a
/// protocol regression fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const std::string& unix_path) {
    std::string error;
    fd_ = ConnectUnix(unix_path, error);
    EXPECT_GE(fd_, 0) << error;
    SetTimeout();
  }
  explicit Client(int port) {
    std::string error;
    fd_ = ConnectTcp(port, error);
    EXPECT_GE(fd_, 0) << error;
    SetTimeout();
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& payload) { return WriteFrame(fd_, payload); }
  bool SendRaw(const std::string& bytes) {
    return ::write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Next frame payload, or "" on error/EOF (with the reason in
  /// last_error()).
  std::string Read() {
    std::string payload;
    if (ReadFrame(fd_, decoder_, payload, error_) !=
        FrameDecoder::Next::kFrame) {
      return "";
    }
    return payload;
  }

  /// Reads frames until one of `type` arrives (skipping e.g. progress
  /// ticks); "" when the stream ends first.
  std::string ReadUntil(const std::string& type) {
    for (int i = 0; i < 100; ++i) {
      const std::string payload = Read();
      if (payload.empty()) return "";
      if (Field(payload, "type") == type) return payload;
    }
    return "";
  }

  const std::string& last_error() const { return error_; }
  int fd() const { return fd_; }

 private:
  void SetTimeout() {
    const timeval tv{.tv_sec = 120, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
  FrameDecoder decoder_;
  std::string error_;
};

/// Starts a Server on a fresh unix socket (and optionally TCP) and
/// runs its accept loop on a background thread.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options, const std::string& tag)
      : dir_(TempDir(tag)) {
    if (options.unix_path.empty()) options.unix_path = dir_ + "/sock";
    unix_path_ = options.unix_path;
    server_ = std::make_unique<Server>(options);
    core::DiagnosticList diags;
    EXPECT_TRUE(server_->Start(diags)) << diags.ToString();
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerFixture() {
    server_->Shutdown();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  Server& server() { return *server_; }
  const std::string& unix_path() const { return unix_path_; }

 private:
  std::string dir_;
  std::string unix_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(ServeE2e, UnixSocketSubmitToResultRoundTrip) {
  ServerFixture fixture({}, "roundtrip");
  Client client(fixture.unix_path());

  const std::string hello = client.Read();
  EXPECT_EQ(Field(hello, "type"), "hello");
  EXPECT_EQ(Field(hello, "protocol"), "1");

  const JobSpec spec = QuickSpec(17, "e2e");
  ASSERT_TRUE(client.Send(BuildSubmitPayload(spec)));
  const std::string accepted = client.Read();
  ASSERT_EQ(Field(accepted, "type"), "accepted") << accepted;
  const std::string id = Field(accepted, "id");

  // The result frame is pushed without any further request.
  const std::string result = client.ReadUntil("result");
  ASSERT_FALSE(result.empty()) << client.last_error();
  EXPECT_EQ(Field(result, "id"), id);
  EXPECT_EQ(Field(result, "status"), "ok");

  // Bit-identity against a direct engine run of the same job.
  atpg::AtpgOptions reference_options = spec.atpg;
  reference_options.num_threads = 1;
  const auto parsed = netlist::ParseBenchString(spec.netlist);
  ASSERT_TRUE(parsed.ok());
  const atpg::AtpgResult reference =
      atpg::RunAtpg(*parsed.circuit, reference_options);
  core::TestSet set;
  set.tests = reference.tests;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", core::Crc32(set.ToText()));
  EXPECT_EQ(Field(result, "tests_crc32"), crc);

  // The finished job stays queryable and re-fetchable.
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 PING\n"));
  EXPECT_EQ(Field(client.Read(), "type"), "pong");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 QUERY\nid: " + id + "\n"));
  const std::string progress = client.Read();
  EXPECT_EQ(Field(progress, "type"), "progress");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 RESULT\nid: " + id + "\n"));
  EXPECT_EQ(client.Read(), result);  // Byte-identical re-fetch.
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 STATS\n"));
  const std::string stats = client.Read();
  EXPECT_EQ(Field(stats, "type"), "stats");
  EXPECT_EQ(Field(stats, "accepted"), "1");

  // Shutdown drains and says goodbye.
  fixture.server().Shutdown();
  EXPECT_EQ(Field(client.ReadUntil("goodbye"), "type"), "goodbye");
}

TEST(ServeE2e, TcpTransportSpeaksTheSameProtocol) {
  ServerOptions options;
  options.unix_path = TempDir("tcp") + "/sock";
  options.tcp_port = 0;  // Pick any free port.
  ServerFixture fixture(options, "tcp");
  ASSERT_GT(fixture.server().port(), 0);
  Client client(fixture.server().port());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 PING\n"));
  EXPECT_EQ(Field(client.Read(), "type"), "pong");
}

TEST(ServeE2e, MalformedFrameGetsAnErrorThenHangup) {
  ServerFixture fixture({}, "badframe");
  Client client(fixture.unix_path());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  // A zero-length frame poisons the stream.
  ASSERT_TRUE(client.SendRaw(std::string(4, '\0')));
  const std::string error = client.Read();
  EXPECT_EQ(Field(error, "type"), "error");
  EXPECT_EQ(Field(error, "reason"), "bad_frame");
  EXPECT_EQ(client.Read(), "");  // Connection closed behind it.
}

TEST(ServeE2e, OversizedFrameIsRejectedFromItsHeader) {
  ServerFixture fixture({}, "oversize");
  Client client(fixture.unix_path());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  // Announce a ~4 GiB payload; the server must refuse on the header
  // alone instead of trying to buffer it.
  ASSERT_TRUE(client.SendRaw(std::string("\xff\xff\xff\xff", 4)));
  const std::string error = client.Read();
  EXPECT_EQ(Field(error, "reason"), "bad_frame");
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(ServeE2e, BadRequestsAndUnknownJobsGetTypedErrors) {
  ServerFixture fixture({}, "badreq");
  Client client(fixture.unix_path());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 DANCE\n"));
  std::string error = client.Read();
  EXPECT_EQ(Field(error, "reason"), "bad_request");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 QUERY\nid: 999\n"));
  EXPECT_EQ(Field(client.Read(), "reason"), "unknown_job");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 RESULT\nid: 999\n"));
  EXPECT_EQ(Field(client.Read(), "reason"), "unknown_job");
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 CANCEL\nid: 999\n"));
  EXPECT_EQ(Field(client.Read(), "reason"), "not_cancellable");
  // A malformed SUBMIT carries its diagnostics in the reject.
  ASSERT_TRUE(client.Send("REPRO-SERVE/1 SUBMIT\n\nINPUT(a)\ny = FROB(a)\n"));
  const std::string rejected = client.Read();
  EXPECT_EQ(Field(rejected, "type"), "rejected");
  EXPECT_EQ(Field(rejected, "reason"), "invalid_request");
  EXPECT_NE(rejected.find("diagnostics"), std::string::npos);
}

TEST(ServeE2e, ProgressTickerStreamsMetricsSnapshots) {
  ServerOptions options;
  options.progress_ms = 25;
  ServerFixture fixture(options, "ticker");
  Client client(fixture.unix_path());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  const std::string progress = client.ReadUntil("progress");
  ASSERT_FALSE(progress.empty()) << client.last_error();
  EXPECT_NE(progress.find("\"metrics\""), std::string::npos);
}

TEST(ServeE2e, ConcurrentClientsGetBitIdenticalResultsForIdenticalJobs) {
  ServerOptions options;
  options.service.num_workers = 2;
  ServerFixture fixture(options, "concurrent");

  constexpr int kClients = 3;
  std::vector<std::string> crcs(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(fixture.unix_path());
      if (Field(client.Read(), "type") != "hello") return;
      // Identical spec on every client; only the label differs.
      JobSpec spec = QuickSpec(41, "client-" + std::to_string(i));
      if (!client.Send(BuildSubmitPayload(spec))) return;
      if (Field(client.Read(), "type") != "accepted") return;
      const std::string result = client.ReadUntil("result");
      crcs[i] = Field(result, "tests_crc32");
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(crcs[0], "");
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(crcs[i], crcs[0]) << "client " << i << " diverged";
  }
}

/// A result frame with its run-dependent fields blanked: the job id
/// (admission order) and the wall-clock elapsed_ms.
std::string MaskIdAndElapsed(const std::string& frame) {
  static const std::regex kVolatile(R"re("(id|elapsed_ms)": [0-9]+)re");
  return std::regex_replace(frame, kVolatile, "\"$1\": _");
}

/// One TCP client submits `payloads` in order, each awaiting its
/// accepted frame, then collects a result frame per job.  Returns the
/// masked result frames by job name; a missing entry is a lost result.
std::map<std::string, std::string> SubmitAndCollect(
    int port, const std::vector<std::string>& payloads) {
  std::map<std::string, std::string> results;
  Client client(port);
  if (Field(client.Read(), "type") != "hello") return results;
  std::size_t accepted = 0;
  const auto take = [&](const std::string& frame) {
    const std::string type = Field(frame, "type");
    if (type == "accepted") ++accepted;
    if (type == "result") {
      results[Field(frame, "name")] = MaskIdAndElapsed(frame);
    }
    return !frame.empty() && type != "rejected" && type != "error";
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (!client.Send(payloads[i])) return results;
    while (accepted <= i) {
      if (!take(client.Read())) return results;
    }
  }
  while (results.size() < payloads.size()) {
    if (!take(client.Read())) return results;
  }
  return results;
}

TEST(ServeE2e, ResultFramesDoNotDependOnTheNumberOfClients) {
  // Six named quick ATPG jobs over the first two Table II circuits,
  // split round-robin over 1 and then 2 TCP clients of one daemon.
  std::vector<std::string> netlists;
  for (std::size_t v = 0; v < 2; ++v) {
    netlists.push_back(netlist::WriteBenchString(
        bench::PrepareVariant(bench::Table2Variants()[v]).original));
  }
  std::vector<std::string> payloads;
  for (std::size_t j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.threads = 1;
    spec.atpg = QuickAtpg();
    spec.netlist = netlists[j % netlists.size()];
    payloads.push_back(BuildSubmitPayload(spec));
  }

  ServerOptions options;
  options.tcp_port = 0;  // Pick any free port.
  options.service.num_workers = 4;
  ServerFixture fixture(options, "clients");
  const int port = fixture.server().port();
  ASSERT_GT(port, 0);

  std::vector<std::map<std::string, std::string>> by_point;
  for (const int clients : {1, 2}) {
    std::vector<std::vector<std::string>> shares(clients);
    for (std::size_t j = 0; j < payloads.size(); ++j) {
      shares[j % clients].push_back(payloads[j]);
    }
    std::vector<std::map<std::string, std::string>> results(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(
          [&, c] { results[c] = SubmitAndCollect(port, shares[c]); });
    }
    for (std::thread& thread : threads) thread.join();
    std::map<std::string, std::string>& merged = by_point.emplace_back();
    for (const auto& share : results) merged.insert(share.begin(), share.end());
    ASSERT_EQ(merged.size(), payloads.size()) << clients << " client(s)";
  }
  for (const auto& [name, frame] : by_point[0]) {
    EXPECT_EQ(Field(frame, "status"), "ok") << frame;
    EXPECT_EQ(by_point[1].at(name), frame) << name << " differs at 2 clients";
  }
}

TEST(ServeE2e, QueueFullRejectsOverTheWire) {
  ServerOptions options;
  options.service.max_queue = 0;
  ServerFixture fixture(options, "full");
  Client client(fixture.unix_path());
  EXPECT_EQ(Field(client.Read(), "type"), "hello");
  ASSERT_TRUE(client.Send(BuildSubmitPayload(QuickSpec(3, "bounced"))));
  const std::string rejected = client.Read();
  EXPECT_EQ(Field(rejected, "type"), "rejected");
  EXPECT_EQ(Field(rejected, "reason"), "queue_full");
}

}  // namespace
}  // namespace retest::core::server
