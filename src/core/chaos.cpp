#include "core/chaos.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.h"

namespace retest::core::chaos {
namespace {

/// When does an armed site misbehave?  Evaluated per hit against the
/// site's 1-based hit ordinal — never against wall clock or a shared
/// RNG, so decisions replay exactly (docs/CHAOS.md).
struct Trigger {
  enum class Kind { kOff, kAlways, kNth, kFrom, kEvery, kPercent };
  Kind kind = Kind::kOff;
  long first = 0;    ///< kNth / kFrom / kEvery: the anchoring hit.
  long period = 0;   ///< kEvery: every `period`th hit from `first`.
  long percent = 0;  ///< kPercent.
  bool has_arg = false;
  long arg = 0;
};

/// Per-site bookkeeping.  Entries are created on first mention (spec
/// or Fire) and never destroyed, so a Fire racing a LoadSpec can at
/// worst observe a freshly reset counter — never a dangling pointer.
struct SiteState {
  Trigger trigger;
  bool armed = false;  ///< Named in the current spec.
  long hits = 0;
  long injected = 0;
};

struct State {
  std::mutex mutex;  ///< Guards everything below but `env_checked`.
  std::atomic<bool> env_checked{false};
  std::atomic<bool> enabled{false};
  std::uint64_t seed = 0;
  std::map<std::string, std::unique_ptr<SiteState>> sites;
};

State& GlobalState() {
  static State* state = new State;  // Leaked: usable during exit.
  return *state;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashSite(const std::string& site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool Decide(const Trigger& trigger, long hit, std::uint64_t seed,
            std::uint64_t site_hash) {
  switch (trigger.kind) {
    case Trigger::Kind::kOff:
      return false;
    case Trigger::Kind::kAlways:
      return true;
    case Trigger::Kind::kNth:
      return hit == trigger.first;
    case Trigger::Kind::kFrom:
      return hit >= trigger.first;
    case Trigger::Kind::kEvery:
      return hit >= trigger.first &&
             (hit - trigger.first) % trigger.period == 0;
    case Trigger::Kind::kPercent:
      return static_cast<long>(
                 Mix64(seed ^ site_hash ^ static_cast<std::uint64_t>(hit)) %
                 100) < trigger.percent;
  }
  return false;
}

bool ParseLong(const std::string& text, long* out) {
  if (text.empty()) return false;
  long value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (std::numeric_limits<long>::max() - (c - '0')) / 10) {
      return false;
    }
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

std::string Trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) --end;
  return text.substr(begin, end - begin);
}

bool ParseWhen(const std::string& text, Trigger* trigger, std::string* error) {
  if (text == "always") {
    trigger->kind = Trigger::Kind::kAlways;
    return true;
  }
  if (text == "off") {
    trigger->kind = Trigger::Kind::kOff;
    return true;
  }
  if (text.size() > 1 && text[0] == 'p') {
    if (!ParseLong(text.substr(1), &trigger->percent) ||
        trigger->percent > 100) {
      *error = "bad percent trigger '" + text + "' (want p0..p100)";
      return false;
    }
    trigger->kind = Trigger::Kind::kPercent;
    return true;
  }
  const std::size_t percent_at = text.find('%');
  if (percent_at != std::string::npos) {
    if (!ParseLong(text.substr(0, percent_at), &trigger->first) ||
        trigger->first < 1 ||
        !ParseLong(text.substr(percent_at + 1), &trigger->period) ||
        trigger->period < 1) {
      *error = "bad periodic trigger '" + text + "' (want N%M, N,M >= 1)";
      return false;
    }
    trigger->kind = Trigger::Kind::kEvery;
    return true;
  }
  std::string digits = text;
  bool from = false;
  if (!digits.empty() && digits.back() == '+') {
    from = true;
    digits.pop_back();
  }
  if (!ParseLong(digits, &trigger->first) || trigger->first < 1) {
    *error = "bad trigger '" + text +
             "' (want always, off, N, N+, N%M or pP)";
    return false;
  }
  trigger->kind = from ? Trigger::Kind::kFrom : Trigger::Kind::kNth;
  return true;
}

/// Parses a full spec into (seed, site -> trigger) without touching
/// global state, so a malformed spec leaves nothing half-armed.
bool ParseSpec(const std::string& spec, std::uint64_t* seed,
               std::vector<std::pair<std::string, Trigger>>* triggers,
               std::string* error) {
  std::size_t at = 0;
  while (at <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', at), spec.size());
    const std::string entry = Trim(spec.substr(at, end - at));
    at = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      *error = "chaos spec entry '" + entry + "' is not key=value";
      return false;
    }
    const std::string key = Trim(entry.substr(0, eq));
    const std::string value = Trim(entry.substr(eq + 1));
    if (key == "seed") {
      long parsed = 0;
      if (!ParseLong(value, &parsed)) {
        *error = "bad chaos seed '" + value + "'";
        return false;
      }
      *seed = static_cast<std::uint64_t>(parsed);
      continue;
    }
    for (const char c : key) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '.' || c == '_';
      if (!ok) {
        *error = "bad chaos site name '" + key + "'";
        return false;
      }
    }
    Trigger trigger;
    std::string when = value;
    const std::size_t colon = value.find(':');
    if (colon != std::string::npos) {
      when = Trim(value.substr(0, colon));
      if (!ParseLong(Trim(value.substr(colon + 1)), &trigger.arg)) {
        *error = "bad chaos arg in '" + entry + "'";
        return false;
      }
      trigger.has_arg = true;
    }
    if (!ParseWhen(when, &trigger, error)) return false;
    triggers->emplace_back(key, trigger);
  }
  return true;
}

/// Resets and re-arms under the state mutex.  Existing SiteState
/// entries are reset in place (never freed — see SiteState).
bool ApplySpecLocked(State& state, const std::string& spec,
                     std::string* error) {
  state.enabled.store(false, std::memory_order_relaxed);
  state.seed = 0;
  for (auto& [name, site] : state.sites) {
    site->trigger = Trigger{};
    site->armed = false;
    site->hits = 0;
    site->injected = 0;
  }
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, Trigger>> triggers;
  if (Trim(spec).empty()) return true;
  if (!ParseSpec(spec, &seed, &triggers, error)) return false;
  state.seed = seed;
  for (auto& [name, trigger] : triggers) {
    auto& slot = state.sites[name];
    if (!slot) slot = std::make_unique<SiteState>();
    slot->trigger = trigger;
    slot->armed = true;
  }
  state.enabled.store(true, std::memory_order_release);
  return true;
}

/// First-use hook: consumes REPRO_CHAOS exactly once per process.  A
/// malformed env spec stays disarmed but complains loudly — a typo
/// must not produce a silently chaos-free "green" run.
void EnsureEnvLocked(State& state) {
  if (state.env_checked.load(std::memory_order_relaxed)) return;
  state.env_checked.store(true, std::memory_order_release);
  const char* env = std::getenv("REPRO_CHAOS");
  if (env == nullptr || *env == '\0') return;
  std::string error;
  if (!ApplySpecLocked(state, env, &error)) {
    std::fprintf(stderr, "repro chaos: REPRO_CHAOS ignored: %s\n",
                 error.c_str());
  }
}

struct Outcome {
  bool fired = false;
  long arg = 0;
};

Outcome Evaluate(const char* site, long default_arg) {
  State& state = GlobalState();
  if (state.env_checked.load(std::memory_order_acquire) &&
      !state.enabled.load(std::memory_order_relaxed)) {
    return {};
  }
  Outcome outcome;
  outcome.arg = default_arg;
  std::lock_guard<std::mutex> lock(state.mutex);
  EnsureEnvLocked(state);
  if (!state.enabled.load(std::memory_order_relaxed)) return {};
  auto& slot = state.sites[site];
  if (!slot) slot = std::make_unique<SiteState>();
  SiteState& entry = *slot;
  const long hit = ++entry.hits;
  RETEST_COUNTER_ADD("chaos.hits", "hits", "chaos",
                     "injection sites reached while chaos is armed", 1);
  if (!entry.armed ||
      !Decide(entry.trigger, hit, state.seed, HashSite(site))) {
    return outcome;
  }
  ++entry.injected;
  if (entry.trigger.has_arg) outcome.arg = entry.trigger.arg;
  outcome.fired = true;
  RETEST_COUNTER_ADD("chaos.injected", "injections", "chaos",
                     "faults injected across all chaos sites", 1);
#if RETEST_METRICS
  metrics::RegisterCounter(std::string("chaos.injected.") + site,
                           "injections", "chaos",
                           "faults injected at one chaos site")
      .Add(1);
#endif
  return outcome;
}

}  // namespace

bool Enabled() {
  State& state = GlobalState();
  if (!state.env_checked.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(state.mutex);
    EnsureEnvLocked(state);
  }
  return state.enabled.load(std::memory_order_relaxed);
}

bool LoadSpec(const std::string& spec, std::string* error) {
  State& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  // An explicit arm supersedes the environment for this process.
  state.env_checked.store(true, std::memory_order_release);
  std::string local_error;
  if (!ApplySpecLocked(state, spec, &local_error)) {
    if (error != nullptr) *error = local_error;
    return false;
  }
  return true;
}

void Reset() {
  State& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.env_checked.store(true, std::memory_order_release);
  std::string ignored;
  ApplySpecLocked(state, "", &ignored);
}

bool Fire(const char* site) { return Evaluate(site, 0).fired; }

bool FireArg(const char* site, long default_arg, long* arg) {
  const Outcome outcome = Evaluate(site, default_arg);
  if (outcome.fired && arg != nullptr) *arg = outcome.arg;
  return outcome.fired;
}

bool InjectStall(const char* site, long default_ms) {
  const Outcome outcome = Evaluate(site, default_ms);
  if (!outcome.fired) return false;
  // Clamp so a fat-fingered spec cannot freeze a worker for hours —
  // stalls probe slow-path behavior, not availability.
  const long ms = std::min(outcome.arg, 10'000L);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  return true;
}

bool CorruptByte(const char* site, char* data, std::size_t size) {
  const Outcome outcome = Evaluate(site, 0);
  if (!outcome.fired || size == 0) return outcome.fired;
  const std::size_t index = static_cast<std::size_t>(outcome.arg) % size;
  data[index] = static_cast<char>(data[index] ^ 0x01);
  return true;
}

long Hits(const char* site) {
  State& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.sites.find(site);
  return it == state.sites.end() ? 0 : it->second->hits;
}

long Injected(const char* site) {
  State& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.sites.find(site);
  return it == state.sites.end() ? 0 : it->second->injected;
}

long TotalInjected() {
  State& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  long total = 0;
  for (const auto& [name, site] : state.sites) total += site->injected;
  return total;
}

}  // namespace retest::core::chaos
