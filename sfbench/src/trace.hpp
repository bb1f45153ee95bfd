// Span recording for the traced run.  Spans are taken around the public
// calls the benchmark makes into each layer (never inside the program), kept
// in memory, and written at the end as a Chrome trace-event file that
// Perfetto and chrome://tracing open.
//
// A span's name is `<layer>.<call>`; its self time is its duration minus the
// part of it that its child spans cover.  Spans in category "verify" belong
// to output checks, those in "setup" to set-up; both are kept out of every
// layer total.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace sfbench {

struct SpanRecord {
  const char* name = "";
  const char* category = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t item = 0;    // request / event / scenario id
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::uint64_t open(const char* name, const char* category,
                     std::uint64_t item);
  /// Closes the innermost open span of the calling thread.
  void close(std::uint64_t id);
  /// Records a finished span with explicit times (a request timed across
  /// threads) under the span with id `parent` (0 = root).
  void record(const char* name, const char* category, Clock::time_point start,
              Clock::time_point end, std::uint64_t item, std::uint64_t parent);

  std::vector<SpanRecord> spans() const;

  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(const char* name, const char* category = "", std::uint64_t item = 0)
      : id_(Tracer::get().enabled()
                ? Tracer::get().open(name, category, item)
                : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing was off at construction.
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Self time per layer (the name's prefix before the first '.') in ms,
/// excluding "verify" and "setup" spans.
std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& spans);

/// Sum of durations (ms) of the spans called `name`.
double total_ms(const std::vector<SpanRecord>& spans, const std::string& name);

/// Durations (us) of the spans called `name`.
std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                 const std::string& name);

}  // namespace sfbench
