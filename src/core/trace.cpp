#include "core/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/json.h"

namespace retest::core::trace {
namespace {

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A thread's private event buffer; same shard pattern as metrics.cpp.
struct Buffer {
  std::mutex mu;
  int tid = 0;
  std::vector<Event> events;
};

class Recorder {
 public:
  /// Leaked singleton: per-thread buffer destructors must outlive it.
  static Recorder& Get() {
    static Recorder* instance = new Recorder;
    return *instance;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void Attach(Buffer* buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }

  void Detach(Buffer* buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.erase(std::remove(buffers_.begin(), buffers_.end(), buffer),
                   buffers_.end());
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    retired_.insert(retired_.end(), buffer->events.begin(),
                    buffer->events.end());
    buffer->events.clear();
  }

  void Drain(std::vector<Event>& out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Buffer* buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      retired_.insert(retired_.end(), buffer->events.begin(),
                      buffer->events.end());
      buffer->events.clear();
    }
    out.insert(out.end(), retired_.begin(), retired_.end());
    retired_.clear();
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Buffer* buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      buffer->events.clear();
    }
    retired_.clear();
  }

 private:
  Recorder() {
    if (const char* path = std::getenv("REPRO_TRACE")) {
      if (path[0] != '\0') {
        exit_path_ = path;
        enabled_.store(true, std::memory_order_relaxed);
        std::atexit([] {
          Recorder& recorder = Recorder::Get();
          if (!recorder.exit_path_.empty()) WriteTo(recorder.exit_path_);
        });
      }
    }
  }

  std::atomic<bool> enabled_{false};
  std::string exit_path_;
  std::mutex mu_;
  std::vector<Buffer*> buffers_;
  std::vector<Event> retired_;
  int next_tid_ = 0;
};

Buffer* LocalBuffer() {
  struct Holder {
    Buffer buffer;
    Holder() { Recorder::Get().Attach(&buffer); }
    ~Holder() { Recorder::Get().Detach(&buffer); }
  };
  thread_local Holder holder;
  return &holder.buffer;
}

}  // namespace

bool Enabled() { return Recorder::Get().enabled(); }

void EnableForTesting(bool enabled) { Recorder::Get().set_enabled(enabled); }

Span::Span(const char* name, const char* category)
    : name_(name), category_(category) {
  if (Recorder::Get().enabled()) start_us_ = NowUs();
}

Span::~Span() {
  if (start_us_ < 0) return;
  const std::int64_t end_us = NowUs();
  Buffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back(
      {name_, category_, start_us_, end_us - start_us_, buffer->tid});
}

void Drain(std::vector<Event>& out) { Recorder::Get().Drain(out); }

bool WriteTo(const std::string& path) {
  std::vector<Event> events;
  Drain(events);
  // Chrome trace_event JSON object format: an array of complete ("X")
  // events.  chrome://tracing and Perfetto both accept it.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"" + JsonEscape(e.name) + "\", \"cat\": \"" +
           JsonEscape(e.category) + "\", \"ph\": \"X\", \"ts\": " +
           std::to_string(e.start_us) +
           ", \"dur\": " + std::to_string(e.duration_us) +
           ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) + "}";
  }
  out += events.empty() ? "]}\n" : "\n]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

void ResetForTesting() { Recorder::Get().Reset(); }

}  // namespace retest::core::trace
