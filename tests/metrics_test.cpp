// Tests for the observability layer (core/metrics.h, core/trace.h):
// counter/distribution correctness under concurrent thread-local shard
// merging, ToJson round-trip through a strict JSON syntax checker,
// trace-span nesting well-formedness, and the runtime kill switch.
//
// The registry is process-global and shared with the engines, so every
// test uses unique "test.*" metric names; value assertions compare
// before/after snapshots instead of absolute totals.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/trace.h"
#include "fault/fault.h"
#include "faultsim/proofs.h"
#include "tests/paper_circuits.h"

namespace retest {
namespace {

namespace metrics = core::metrics;
namespace trace = core::trace;

// ---- A strict (syntax-only) JSON checker for round-trip tests ------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (; *word != '\0'; ++word) {
      if (pos_ >= text_.size() || text_[pos_] != *word) return false;
      ++pos_;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

long CounterValueOf(const metrics::Snapshot& snapshot,
                    const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return -1;
}

const metrics::DistributionValue* DistOf(const metrics::Snapshot& snapshot,
                                         const std::string& name) {
  for (const auto& d : snapshot.distributions) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

// ---- Registry ------------------------------------------------------

TEST(MetricsTest, RegistrationIsIdempotent) {
  const auto a = metrics::RegisterCounter("test.idempotent", "x", "test", "");
  const auto b = metrics::RegisterCounter("test.idempotent", "y", "test", "");
  EXPECT_EQ(a.id, b.id);
  const auto d1 =
      metrics::RegisterDistribution("test.idempotent_dist", "x", "test", "");
  const auto d2 =
      metrics::RegisterDistribution("test.idempotent_dist", "x", "test", "");
  EXPECT_EQ(d1.id, d2.id);
  EXPECT_NE(a.id, d1.id);
}

TEST(MetricsTest, CounterAccumulatesAcrossThreadsExactly) {
  const auto counter =
      metrics::RegisterCounter("test.concurrent_counter", "ops", "test", "");
  const long before =
      CounterValueOf(metrics::Collect(), "test.concurrent_counter");
  ASSERT_GE(before, 0);

  constexpr int kThreads = 8;
  constexpr long kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (long i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (long i = 0; i < kAddsPerThread; ++i) counter.Add(1);  // main thread
  for (auto& thread : threads) thread.join();

  // Exited threads merged on detach, the main thread's live shard is
  // drained by Collect: nothing may be lost or double-counted.
  const long after =
      CounterValueOf(metrics::Collect(), "test.concurrent_counter");
  EXPECT_EQ(after - before, (kThreads + 1) * kAddsPerThread);
}

TEST(MetricsTest, CollectWhileThreadsUpdateLosesNothing) {
  const auto counter =
      metrics::RegisterCounter("test.racing_counter", "ops", "test", "");
  const long before = CounterValueOf(metrics::Collect(), "test.racing_counter");

  constexpr int kThreads = 4;
  constexpr long kAddsPerThread = 50'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (long i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  // Snapshots race the updates: each drains live shards into the
  // cumulative totals.  Values must be monotone, never lost.
  long last = before;
  std::thread collector([&] {
    while (!done.load()) {
      const long now =
          CounterValueOf(metrics::Collect(), "test.racing_counter");
      EXPECT_GE(now, last);
      last = now;
    }
  });
  for (auto& thread : threads) thread.join();
  done.store(true);
  collector.join();

  const long after = CounterValueOf(metrics::Collect(), "test.racing_counter");
  EXPECT_EQ(after - before, kThreads * kAddsPerThread);
}

TEST(MetricsTest, DistributionTracksMinMaxSumCount) {
  const auto dist =
      metrics::RegisterDistribution("test.dist_stats", "units", "test", "");
  dist.Record(4.0);
  dist.Record(-2.0);
  dist.Record(10.0);
  dist.Record(0.5);
  const auto snapshot = metrics::Collect();
  const auto* value = DistOf(snapshot, "test.dist_stats");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 4);
  EXPECT_DOUBLE_EQ(value->sum, 12.5);
  EXPECT_DOUBLE_EQ(value->min, -2.0);
  EXPECT_DOUBLE_EQ(value->max, 10.0);
  EXPECT_DOUBLE_EQ(value->Mean(), 12.5 / 4.0);
}

TEST(MetricsTest, DistributionMergesAcrossThreads) {
  const auto dist =
      metrics::RegisterDistribution("test.dist_merge", "units", "test", "");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) dist.Record(t * 100 + i);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snapshot = metrics::Collect();
  const auto* value = DistOf(snapshot, "test.dist_merge");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 400);
  EXPECT_DOUBLE_EQ(value->min, 0);
  EXPECT_DOUBLE_EQ(value->max, 399);
}

TEST(MetricsTest, ScopedTimerRecordsElapsedMs) {
  const auto dist = metrics::RegisterDistribution("test.timer_ms", "ms",
                                                  "test", "");
  const auto snapshot_before = metrics::Collect();
  const auto* before = DistOf(snapshot_before, "test.timer_ms");
  const long count_before = before != nullptr ? before->count : 0;
  {
    metrics::ScopedTimer timer(dist);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto snapshot_after = metrics::Collect();
  const auto* after = DistOf(snapshot_after, "test.timer_ms");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, count_before + 1);
  EXPECT_GE(after->max, 4.0);  // slept >= 5 ms, allow scheduler slop
}

TEST(MetricsTest, DisabledUpdatesAreDropped) {
  const auto counter =
      metrics::RegisterCounter("test.kill_switch", "ops", "test", "");
  counter.Add(3);
  metrics::SetEnabled(false);
  counter.Add(1000);
  metrics::SetEnabled(true);
  counter.Add(4);
  EXPECT_EQ(CounterValueOf(metrics::Collect(), "test.kill_switch"), 7);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  const auto counter =
      metrics::RegisterCounter("test.reset_me", "ops", "test", "");
  counter.Add(42);
  EXPECT_EQ(CounterValueOf(metrics::Collect(), "test.reset_me"), 42);
  metrics::Reset();
  // Still listed (registration survives), value back to zero.
  EXPECT_EQ(CounterValueOf(metrics::Collect(), "test.reset_me"), 0);
  counter.Add(1);
  EXPECT_EQ(CounterValueOf(metrics::Collect(), "test.reset_me"), 1);
}

// ---- ToJson --------------------------------------------------------

TEST(MetricsTest, ToJsonIsSyntacticallyValidAndComplete) {
  metrics::RegisterCounter("test.json_counter", "ops", "test",
                           "a \"quoted\" help string")
      .Add(11);
  metrics::RegisterDistribution("test.json_dist", "ms", "test", "").Record(2.5);
  const std::string json = metrics::ToJson(4);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_dist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"distributions\""), std::string::npos);
}

TEST(MetricsTest, ToJsonRoundTripsValues) {
  metrics::Reset();
  metrics::RegisterCounter("test.roundtrip", "ops", "test", "").Add(12345);
  const std::string json = metrics::ToJson();
  EXPECT_NE(json.find("\"test.roundtrip\": {\"value\": 12345"),
            std::string::npos)
      << json;
}

// ---- Engine integration (sites fire only when compiled in) ---------

TEST(MetricsTest, ProofsRunPopulatesFaultsimMetrics) {
  const netlist::Circuit circuit = retest::testing::MakeFig2C1();
  const auto faults = fault::EnumerateFaults(circuit);
  sim::InputSequence sequence(8, std::vector<sim::V3>(
                                     static_cast<size_t>(circuit.num_inputs()),
                                     sim::V3::k1));
  const long before =
      CounterValueOf(metrics::Collect(), "faultsim.frames_evaluated");
  const auto result = faultsim::SimulateProofs(circuit, faults, sequence);
  const auto snapshot = metrics::Collect();
  const long after = CounterValueOf(snapshot, "faultsim.frames_evaluated");
#if RETEST_METRICS
  // The frames counter must agree exactly with the engine's own
  // deterministic work measure.
  EXPECT_EQ(after - std::max(before, 0L), result.frames_evaluated);
  EXPECT_GT(CounterValueOf(snapshot, "faultsim.batches"), 0);
#else
  // Sites compiled out: the engine metric never registers.
  EXPECT_EQ(before, -1);
  EXPECT_EQ(after, -1);
  (void)result;
#endif
}

// ---- Trace ---------------------------------------------------------

struct TraceGuard {
  TraceGuard() {
    trace::ResetForTesting();
    trace::EnableForTesting(true);
  }
  ~TraceGuard() {
    trace::EnableForTesting(false);
    trace::ResetForTesting();
  }
};

TEST(TraceTest, SpansNestProperlyPerThread) {
  TraceGuard guard;
  {
    trace::Span outer("test.outer");
    {
      trace::Span inner("test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    trace::Span sibling("test.sibling");
  }
  std::vector<trace::Event> events;
  trace::Drain(events);
  ASSERT_EQ(events.size(), 3u);
  // Well-formedness: any two spans of one thread are either disjoint
  // or one contains the other (stack discipline — what lets a viewer
  // rebuild the flame graph from intervals alone).
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      const auto& a = events[i];
      const auto& b = events[j];
      if (a.tid != b.tid) continue;
      const auto a_end = a.start_us + a.duration_us;
      const auto b_end = b.start_us + b.duration_us;
      const bool disjoint = a_end <= b.start_us || b_end <= a.start_us;
      const bool a_in_b = b.start_us <= a.start_us && a_end <= b_end;
      const bool b_in_a = a.start_us <= b.start_us && b_end <= a_end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << a.name << " vs " << b.name;
    }
  }
  // The inner span is contained in the outer one.
  const auto* outer_event = &events[0];
  const auto* inner_event = &events[0];
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer_event = &e;
    if (std::string(e.name) == "test.inner") inner_event = &e;
  }
  EXPECT_LE(outer_event->start_us, inner_event->start_us);
  EXPECT_GE(outer_event->start_us + outer_event->duration_us,
            inner_event->start_us + inner_event->duration_us);
}

TEST(TraceTest, ThreadsGetDistinctTids) {
  TraceGuard guard;
  auto spin = [] { trace::Span span("test.thread_span"); };
  std::thread a(spin), b(spin);
  a.join();
  b.join();
  std::vector<trace::Event> events;
  trace::Drain(events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  trace::ResetForTesting();
  trace::EnableForTesting(false);
  { trace::Span span("test.disabled"); }
  std::vector<trace::Event> events;
  trace::Drain(events);
  EXPECT_TRUE(events.empty());
}

TEST(TraceTest, WriteToEmitsValidChromeTraceJson) {
  TraceGuard guard;
  {
    trace::Span outer("test.write_outer");
    trace::Span inner("test.write_inner");
  }
  const std::string path = ::testing::TempDir() + "metrics_test_trace.json";
  ASSERT_TRUE(trace::WriteTo(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  JsonChecker checker(content);
  EXPECT_TRUE(checker.Valid()) << content;
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("test.write_outer"), std::string::npos);
  EXPECT_NE(content.find("test.write_inner"), std::string::npos);
}

// ---- Macro gating --------------------------------------------------

TEST(MetricsTest, MacrosRespectCompileTimeGate) {
  for (int i = 0; i < 3; ++i) {
    RETEST_COUNTER_ADD("test.macro_counter", "ops", "test",
                       "macro-registered counter", 2);
  }
  RETEST_DIST_RECORD("test.macro_dist", "units", "test", "", 7.0);
  const auto snapshot = metrics::Collect();
#if RETEST_METRICS
  EXPECT_EQ(CounterValueOf(snapshot, "test.macro_counter"), 6);
  const auto* dist = DistOf(snapshot, "test.macro_dist");
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->count, 1);
#else
  EXPECT_EQ(CounterValueOf(snapshot, "test.macro_counter"), -1);
  EXPECT_EQ(DistOf(snapshot, "test.macro_dist"), nullptr);
#endif
}

}  // namespace
}  // namespace retest
