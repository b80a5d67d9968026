// Chaos fault-injection contract (core/chaos, docs/CHAOS.md): spec
// grammar, malformed-spec disarming, trigger forms, deterministic
// percent draws, payload args, byte corruption; injected journal
// faults (open error, torn write) recovering bit-identically; frame
// truncation/bit-flips surfacing as structured decode errors; and a
// cancel during the commit drain staying hang-free and resumable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "core/chaos.h"
#include "core/server/framing.h"
#include "core/status.h"
#include "fsm/benchmarks.h"
#include "synth/synthesize.h"
#include "tests/journal_text.h"
#include "tests/random_circuits.h"

namespace retest::core {
namespace {

using netlist::Circuit;

Circuit SmallCircuit() {
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 6;
  options.num_dffs = 6;
  options.num_gates = 48;
  return retest::testing::MakeRandomCircuit(11, options);
}

atpg::AtpgOptions QuickAtpg() {
  atpg::AtpgOptions options;
  options.seed = 9;
  options.random_rounds = 2;
  options.time_budget_ms = 600'000;
  options.num_threads = 1;
  return options;
}

std::string TempPath(const std::string& name) {
  // One directory per process, so concurrent runs of this test binary
  // cannot remove or overwrite each other's journals; it is removed
  // when the process exits.
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("retest_chaos_" + std::to_string(::getpid()));
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  std::filesystem::create_directories(dir.path);
  const auto path = dir.path / name;
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
  return path.string();
}

void ExpectIdenticalResults(const atpg::AtpgResult& a,
                            const atpg::AtpgResult& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i]) << "fault " << i;
  }
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

/// Every test leaves the global registry disarmed.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { chaos::Reset(); }
  void TearDown() override { chaos::Reset(); }
};

// Tests below that depend on RETEST_CHAOS_* *sites* firing in library
// code skip under REPRO_CHAOS_BUILD=OFF, where the sites compile to
// constant false.  The direct chaos:: API (spec parsing, triggers)
// stays live in both builds and is tested unconditionally.
#if RETEST_CHAOS
#define RETEST_SKIP_WITHOUT_CHAOS_SITES() (void)0
#else
#define RETEST_SKIP_WITHOUT_CHAOS_SITES() \
  GTEST_SKIP() << "chaos sites compiled out (REPRO_CHAOS_BUILD=OFF)"
#endif

TEST_F(ChaosTest, DisarmedFastPathSkipsAllBookkeeping) {
  EXPECT_FALSE(chaos::Enabled());
  EXPECT_FALSE(chaos::Fire("some.site"));
  EXPECT_FALSE(RETEST_CHAOS_FIRE("some.site"));
  // Disarmed means *zero* overhead: no locks, no counters.
  EXPECT_EQ(chaos::Hits("some.site"), 0);
  EXPECT_EQ(chaos::Injected("some.site"), 0);
  // Once any spec is armed, even sites it does not name count hits,
  // so tests can assert a site was reached.
  ASSERT_TRUE(chaos::LoadSpec("other.site=always"));
  EXPECT_FALSE(chaos::Fire("some.site"));
  EXPECT_EQ(chaos::Hits("some.site"), 1);
  EXPECT_EQ(chaos::Injected("some.site"), 0);
}

TEST_F(ChaosTest, NthTriggerFiresExactlyOnce) {
  ASSERT_TRUE(chaos::LoadSpec("a.site=3"));
  EXPECT_TRUE(chaos::Enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(chaos::Fire("a.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(chaos::Hits("a.site"), 6);
  EXPECT_EQ(chaos::Injected("a.site"), 1);
}

TEST_F(ChaosTest, FromAndEveryTriggers) {
  ASSERT_TRUE(chaos::LoadSpec("from.site=3+;every.site=2%3"));
  std::vector<bool> from;
  std::vector<bool> every;
  for (int i = 0; i < 9; ++i) {
    from.push_back(chaos::Fire("from.site"));
    every.push_back(chaos::Fire("every.site"));
  }
  EXPECT_EQ(from, (std::vector<bool>{false, false, true, true, true, true,
                                     true, true, true}));
  // 2%3: the 2nd hit, then every 3rd after it (hits 2, 5, 8).
  EXPECT_EQ(every, (std::vector<bool>{false, true, false, false, true, false,
                                      false, true, false}));
}

TEST_F(ChaosTest, AlwaysOffAndArgForms) {
  ASSERT_TRUE(chaos::LoadSpec("on.site=always:17;off.site=off"));
  long arg = 0;
  EXPECT_TRUE(chaos::FireArg("on.site", 5, &arg));
  EXPECT_EQ(arg, 17);
  EXPECT_FALSE(chaos::Fire("off.site"));
  // A site without a spec arg hands back the caller's default.
  ASSERT_TRUE(chaos::LoadSpec("on.site=always"));
  EXPECT_TRUE(chaos::FireArg("on.site", 5, &arg));
  EXPECT_EQ(arg, 5);
}

TEST_F(ChaosTest, MalformedSpecsDisarmWithAReason) {
  for (const char* bad :
       {"site=wat", "=always", "site=", "seed=", "seed=12x", "site=p",
        "site=p101", "site=0", "site=3%0"}) {
    std::string error;
    EXPECT_FALSE(chaos::LoadSpec(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_FALSE(chaos::Enabled()) << bad;
  }
  // A malformed replacement must not leave the previous spec armed.
  ASSERT_TRUE(chaos::LoadSpec("a.site=always"));
  EXPECT_FALSE(chaos::LoadSpec("a.site=wat"));
  EXPECT_FALSE(chaos::Enabled());
  EXPECT_FALSE(chaos::Fire("a.site"));
}

TEST_F(ChaosTest, EmptySpecDisarms) {
  ASSERT_TRUE(chaos::LoadSpec("a.site=always"));
  EXPECT_TRUE(chaos::Enabled());
  ASSERT_TRUE(chaos::LoadSpec(""));
  EXPECT_FALSE(chaos::Enabled());
}

TEST_F(ChaosTest, PercentDrawsAreDeterministicPerSeed) {
  ASSERT_TRUE(chaos::LoadSpec("seed=7;p.site=p40"));
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(chaos::Fire("p.site"));
  ASSERT_TRUE(chaos::LoadSpec("seed=7;p.site=p40"));
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) second.push_back(chaos::Fire("p.site"));
  EXPECT_EQ(first, second);  // Same seed, same ordinals -> same draws.
  const long fired = chaos::Injected("p.site");
  EXPECT_GT(fired, 20);  // ~80 expected; bounds are generous because
  EXPECT_LT(fired, 140); // the hash is fixed, not statistical.
}

TEST_F(ChaosTest, CorruptByteFlipsExactlyTheAddressedBit) {
  ASSERT_TRUE(chaos::LoadSpec("flip.site=always:2"));
  char data[] = "abcd";
  EXPECT_TRUE(chaos::CorruptByte("flip.site", data, 4));
  EXPECT_EQ(data[0], 'a');
  EXPECT_EQ(data[1], 'b');
  EXPECT_EQ(data[2], 'c' ^ 0x01);
  EXPECT_EQ(data[3], 'd');
}

// ---- Journal fault injection ----------------------------------------

TEST_F(ChaosTest, JournalOpenErrorLeavesTheRunIntact) {
  RETEST_SKIP_WITHOUT_CHAOS_SITES();
  const Circuit circuit = SmallCircuit();
  atpg::AtpgOptions options = QuickAtpg();
  const atpg::AtpgResult reference = atpg::RunAtpg(circuit, options);

  ASSERT_TRUE(chaos::LoadSpec("atpg.journal.open_error=always"));
  options.checkpoint_path = TempPath("open_error.journal");
  const atpg::AtpgResult injected = atpg::RunAtpg(circuit, options);
  EXPECT_GE(chaos::Injected("atpg.journal.open_error"), 1);
  chaos::Reset();

  // The run proceeds un-checkpointed and lands on the same answer.
  ExpectIdenticalResults(reference, injected);
  EXPECT_FALSE(std::filesystem::exists(options.checkpoint_path));
}

TEST_F(ChaosTest, TornJournalWriteResumesBitIdentically) {
  RETEST_SKIP_WITHOUT_CHAOS_SITES();
  const Circuit circuit = SmallCircuit();
  atpg::AtpgOptions options = QuickAtpg();
  const atpg::AtpgResult reference = atpg::RunAtpg(circuit, options);

  // Tear the 5th journal record mid-line: the file freezes in its
  // crash-shaped state (a record prefix, no trailing newline) while
  // the in-memory run continues unaffected.
  ASSERT_TRUE(chaos::LoadSpec("atpg.journal.torn_write=5:7"));
  options.checkpoint_path = TempPath("torn.journal");
  const atpg::AtpgResult torn_run = atpg::RunAtpg(circuit, options);
  ASSERT_GE(chaos::Injected("atpg.journal.torn_write"), 1);
  chaos::Reset();
  ExpectIdenticalResults(reference, torn_run);

  // The resumed run must drop the torn tail, replay the intact prefix
  // and land on the uninterrupted answer, bit for bit.
  const atpg::AtpgResult resumed = atpg::RunAtpg(circuit, options);
  ExpectIdenticalResults(reference, resumed);
}

// ---- Transport fault injection --------------------------------------

TEST_F(ChaosTest, TruncatedFrameSurfacesAsAStructuredDecodeError) {
  RETEST_SKIP_WITHOUT_CHAOS_SITES();
  ASSERT_TRUE(chaos::LoadSpec("serve.frame.truncate=always:6"));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // The writer reports the failure (the server hangs the session up on
  // false), and the reader sees a structured error — never a hang.
  EXPECT_FALSE(server::WriteFrame(fds[1], "{\"type\": \"pong\"}"));
  chaos::Reset();
  ::close(fds[1]);
  server::FrameDecoder decoder;
  std::string payload;
  std::string error;
  EXPECT_EQ(server::ReadFrame(fds[0], decoder, payload, error),
            server::FrameDecoder::Next::kError);
  EXPECT_NE(error.find("eof inside a frame"), std::string::npos);
  ::close(fds[0]);
}

TEST_F(ChaosTest, BitFlipCorruptsThePayloadWithTheHeaderIntact) {
  RETEST_SKIP_WITHOUT_CHAOS_SITES();
  const std::string payload = "{\"type\": \"pong\"}";
  ASSERT_TRUE(chaos::LoadSpec("serve.frame.bitflip=always:3"));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_TRUE(server::WriteFrame(fds[1], payload));
  chaos::Reset();
  ::close(fds[1]);
  char wire[64] = {};
  const ssize_t n = ::read(fds[0], wire, sizeof wire);
  ::close(fds[0]);
  ASSERT_EQ(static_cast<std::size_t>(n),
            server::kFrameHeaderBytes + payload.size());
  // Length header untouched; payload differs in exactly bit 0 of
  // byte 3.
  EXPECT_EQ(static_cast<unsigned char>(wire[3]), payload.size());
  std::string received(wire + server::kFrameHeaderBytes, payload.size());
  EXPECT_NE(received, payload);
  received[3] = static_cast<char>(received[3] ^ 0x01);
  EXPECT_EQ(received, payload);
}

// ---- Cancel during the drain -----------------------------------------

/// Commit records ("C ..." lines) a journal file holds so far.
std::size_t CommitRecords(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::size_t commits = 0;
  std::string line;
  while (std::getline(in, line)) commits += line.rfind("C ", 0) == 0;
  return commits;
}

TEST_F(ChaosTest, CancelDuringTheDrainCommitsResumableUntried) {
  // A cancel raised from another thread while two workers search and
  // drain the commit frontier can land on any search, including the
  // ones being drained.  The contract: the run terminates with every
  // fault slot committed (a search the stop cut converts to kUntried,
  // never a dangling slot), and a rerun over the journal re-searches
  // those kUntried commits into the bit-identical uninterrupted answer.
  // HITEC-style ATPG on dk16 runs long enough (about 0.3 s on one
  // thread) that the cancel lands while most faults are still queued.
  const Circuit circuit =
      synth::Synthesize(fsm::MakeBenchmarkFsm("dk16"), {});
  atpg::AtpgOptions options = QuickAtpg();
  options.style = atpg::AtpgStyle::kJustification;
  options.random_rounds = 0;
  options.max_frames = 2;
  options.backtracks_per_fault = 10;
  options.evaluations_per_fault = 2000;
  options.justify_backtracks = 60;
  const atpg::AtpgResult reference = atpg::RunAtpg(circuit, options);

  std::atomic<bool> cancel{false};
  std::atomic<bool> finished{false};
  atpg::AtpgOptions cancelled = options;
  cancelled.num_threads = 2;
  cancelled.stop = &cancel;
  cancelled.checkpoint_path = TempPath("cancel_drain.journal");
  std::thread canceller([&] {
    while (!finished.load() &&
           CommitRecords(cancelled.checkpoint_path) < 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    cancel.store(true);
  });
  const atpg::AtpgResult preempted = atpg::RunAtpg(circuit, cancelled);
  finished.store(true);
  canceller.join();
  EXPECT_TRUE(preempted.preempted);

  const auto journal =
      retest::testing::ReadJournalText(cancelled.checkpoint_path);
  ASSERT_TRUE(journal.has_value());
  EXPECT_TRUE(journal->complete);
  ASSERT_EQ(journal->commits.size(), journal->remaining_count);
  for (std::size_t pos = 0; pos < journal->commits.size(); ++pos) {
    EXPECT_EQ(journal->commits[pos].pos, pos);
  }

  atpg::AtpgOptions resume = options;  // No cancel, single thread.
  resume.checkpoint_path = cancelled.checkpoint_path;
  const atpg::AtpgResult resumed = atpg::RunAtpg(circuit, resume);
  EXPECT_TRUE(resumed.resumed);
  ExpectIdenticalResults(reference, resumed);
}

}  // namespace
}  // namespace retest::core
