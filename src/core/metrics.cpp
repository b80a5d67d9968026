#include "core/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "core/json.h"

namespace retest::core::metrics {
namespace {

std::atomic<bool> g_enabled{true};

enum class Kind { kCounter, kDistribution };

struct Definition {
  std::string name, unit, subsystem, help;
  Kind kind = Kind::kCounter;
};

struct DistData {
  long count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Record(double value) {
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
  void Merge(const DistData& other) {
    if (other.count == 0) return;
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

/// One thread's private update buffer.  Only the owning thread writes;
/// the registry drains it under `mu` when collecting or resetting, and
/// the owner merges it into the retired totals on thread exit.
struct Shard {
  std::mutex mu;
  std::vector<long> counters;    // by metric id
  std::vector<DistData> dists;   // by metric id
};

/// The process-wide registry.  Leaked on purpose: thread_local shard
/// destructors (including the main thread's, which run during static
/// destruction) must always find it alive.
class Registry {
 public:
  static Registry& Get() {
    static Registry* instance = new Registry;
    return *instance;
  }

  int Register(Kind kind, const std::string& name, const std::string& unit,
               const std::string& subsystem, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    const int id = static_cast<int>(defs_.size());
    defs_.push_back({name, unit, subsystem, help, kind});
    by_name_.emplace(name, id);
    return id;
  }

  void Attach(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }

  /// Merges a dying thread's totals into the retired accumulation and
  /// forgets the shard.
  void Detach(Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                  shards_.end());
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    MergeLocked(*shard);
  }

  Snapshot Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    // Drain every live shard into the retired totals; a shard's owner
    // may be updating concurrently, in which case its in-flight update
    // lands in the next Collect.
    for (Shard* shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      MergeLocked(*shard);
      shard->counters.assign(shard->counters.size(), 0);
      shard->dists.assign(shard->dists.size(), DistData{});
    }
    Snapshot snapshot;
    for (size_t id = 0; id < defs_.size(); ++id) {
      const Definition& def = defs_[id];
      if (def.kind == Kind::kCounter) {
        CounterValue v;
        v.name = def.name;
        v.unit = def.unit;
        v.subsystem = def.subsystem;
        v.help = def.help;
        v.value = id < counters_.size() ? counters_[id] : 0;
        snapshot.counters.push_back(std::move(v));
      } else {
        DistributionValue v;
        v.name = def.name;
        v.unit = def.unit;
        v.subsystem = def.subsystem;
        v.help = def.help;
        if (id < dists_.size() && dists_[id].count > 0) {
          v.count = dists_[id].count;
          v.sum = dists_[id].sum;
          v.min = dists_[id].min;
          v.max = dists_[id].max;
        }
        snapshot.distributions.push_back(std::move(v));
      }
    }
    return snapshot;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.assign(counters_.size(), 0);
    dists_.assign(dists_.size(), DistData{});
    for (Shard* shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      shard->counters.assign(shard->counters.size(), 0);
      shard->dists.assign(shard->dists.size(), DistData{});
    }
  }

 private:
  /// Folds a shard into the retired totals.  Registry and shard
  /// mutexes both held.
  void MergeLocked(const Shard& shard) {
    if (counters_.size() < shard.counters.size()) {
      counters_.resize(shard.counters.size(), 0);
    }
    for (size_t i = 0; i < shard.counters.size(); ++i) {
      counters_[i] += shard.counters[i];
    }
    if (dists_.size() < shard.dists.size()) dists_.resize(shard.dists.size());
    for (size_t i = 0; i < shard.dists.size(); ++i) {
      dists_[i].Merge(shard.dists[i]);
    }
  }

  std::mutex mu_;
  std::vector<Definition> defs_;
  std::unordered_map<std::string, int> by_name_;
  std::vector<Shard*> shards_;   // live threads
  std::vector<long> counters_;   // retired + drained totals, by id
  std::vector<DistData> dists_;
};

/// Thread-local shard, attached on the thread's first update and
/// merged back into the registry when the thread exits.
Shard* LocalShard() {
  struct Holder {
    Shard shard;
    Holder() { Registry::Get().Attach(&shard); }
    ~Holder() { Registry::Get().Detach(&shard); }
  };
  thread_local Holder holder;
  return &holder.shard;
}

long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Formats a double the way every JSON emitter in this repo does:
/// fixed, short, locale-independent.
void AppendNumber(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

}  // namespace

void Counter::Add(long delta) const {
  if (id < 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  Shard* shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->counters.size() <= static_cast<size_t>(id)) {
    shard->counters.resize(static_cast<size_t>(id) + 1, 0);
  }
  shard->counters[static_cast<size_t>(id)] += delta;
}

void Distribution::Record(double value) const {
  if (id < 0 || !g_enabled.load(std::memory_order_relaxed)) return;
  Shard* shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->dists.size() <= static_cast<size_t>(id)) {
    shard->dists.resize(static_cast<size_t>(id) + 1);
  }
  shard->dists[static_cast<size_t>(id)].Record(value);
}

Counter RegisterCounter(const std::string& name, const std::string& unit,
                        const std::string& subsystem,
                        const std::string& help) {
  return Counter{
      Registry::Get().Register(Kind::kCounter, name, unit, subsystem, help)};
}

Distribution RegisterDistribution(const std::string& name,
                                  const std::string& unit,
                                  const std::string& subsystem,
                                  const std::string& help) {
  return Distribution{Registry::Get().Register(Kind::kDistribution, name, unit,
                                               subsystem, help)};
}

ScopedTimer::ScopedTimer(Distribution dist) : dist_(dist) {
  if (dist_.id >= 0 && g_enabled.load(std::memory_order_relaxed)) {
    start_ns_ = NowNs();
  }
}

ScopedTimer::~ScopedTimer() {
  if (start_ns_ < 0) return;
  dist_.Record(static_cast<double>(NowNs() - start_ns_) / 1e6);
}

std::string Snapshot::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(std::max(indent, 0)), ' ');
  const std::string inner = pad + "  ";
  const std::string entry = inner + "  ";

  // Sorted name order keeps the emitted JSON diffable across runs.
  std::vector<const CounterValue*> counter_order;
  for (const CounterValue& c : counters) counter_order.push_back(&c);
  std::sort(counter_order.begin(), counter_order.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  std::vector<const DistributionValue*> dist_order;
  for (const DistributionValue& d : distributions) dist_order.push_back(&d);
  std::sort(dist_order.begin(), dist_order.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });

  std::string out = "{\n";
  out += inner + "\"counters\": {";
  for (size_t i = 0; i < counter_order.size(); ++i) {
    const CounterValue& c = *counter_order[i];
    out += i == 0 ? "\n" : ",\n";
    out += entry;
    out += "\"" + JsonEscape(c.name) + "\": {\"value\": " +
           std::to_string(c.value) + ", \"unit\": \"" + JsonEscape(c.unit) +
           "\", \"subsystem\": \"" + JsonEscape(c.subsystem) + "\"}";
  }
  out += counter_order.empty() ? "},\n" : "\n" + inner + "},\n";
  out += inner + "\"distributions\": {";
  for (size_t i = 0; i < dist_order.size(); ++i) {
    const DistributionValue& d = *dist_order[i];
    out += i == 0 ? "\n" : ",\n";
    out += entry;
    out += "\"" + JsonEscape(d.name) + "\": {\"count\": " +
           std::to_string(d.count) + ", \"sum\": ";
    AppendNumber(out, d.sum);
    out += ", \"min\": ";
    AppendNumber(out, d.count > 0 ? d.min : 0);
    out += ", \"max\": ";
    AppendNumber(out, d.count > 0 ? d.max : 0);
    out += ", \"mean\": ";
    AppendNumber(out, d.Mean());
    out += ", \"unit\": \"" + JsonEscape(d.unit) + "\", \"subsystem\": \"" +
           JsonEscape(d.subsystem) + "\"}";
  }
  out += dist_order.empty() ? "}\n" : "\n" + inner + "}\n";
  out += pad + "}";
  return out;
}

Snapshot Collect() { return Registry::Get().Collect(); }

std::string ToJson(int indent) { return Collect().ToJson(indent); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Reset() { Registry::Get().Reset(); }

}  // namespace retest::core::metrics
