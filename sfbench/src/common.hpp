// Shared plumbing of the benchmark binary: options, the result record every
// workload fills, order statistics, process clocks, and the metrics scrape
// that turns the program's own registry into per-phase deltas.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span file and storm its decision log.
  std::string out_dir = ".bench_build";
  /// Names the code under test (sfbench/run.py hashes the sources); storm's
  /// decision log is kept per digest, so a changed program starts afresh.
  std::string source_digest = "unversioned";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `violations` are failed checks (the run
/// exits non-zero); `failed` counts operations that failed (error response,
/// validator violation, missing response) out of `attempted`.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::map<std::string, double> layer;
  /// Extra `name value unit` lines printed after the run header (sample and
  /// input counts), outside the result object.
  std::vector<Metric> info;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void violation(const std::string& what);
};

/// The per-layer metrics every traced run prints, in order, with units.  A
/// workload that does not exercise a layer leaves its metrics at 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Latency percentiles of a run, robust to a host that stalls the whole
/// process now and then: the samples, in the order they were taken, are cut
/// into consecutive groups of kGroupSamples (the last group takes the rest),
/// and each percentile is the median over groups of the group's percentile.
/// A group of 1000 keeps ten samples beyond its p99.
inline constexpr std::size_t kGroupSamples = 1000;
double grouped_percentile(const std::vector<double>& samples, double q);

/// Operations per second of a run, robust the same way: the per-operation
/// durations (ms, in order) are cut into consecutive windows of `window`
/// operations (the last takes the rest), and the result is the median over
/// windows of window / (sum of its durations).
double windowed_rate(const std::vector<double>& durations_ms, std::size_t window);

/// Process CPU time (user + sys, all threads) in seconds.
double process_cpu_s();
/// Peak resident set of the process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Aggregate CPU jiffies from /proc/stat: steal and total.
struct CpuStat {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuStat read_cpu_stat();

/// One parse of the program's metrics in Prometheus text form (the
/// `GET /metrics` response, or the in-process registry rendered the same
/// way): plain series by name, and histogram buckets as (le, cumulative).
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double value(const std::string& name) const;
};
Scrape parse_prometheus(const std::string& text);
/// The in-process registry, rendered and parsed like a remote scrape.
Scrape scrape_registry();

/// Per-phase histogram accumulator: the bucket-count deltas of one metric
/// between two scrapes, summed over any number of phases.
struct HistogramDelta {
  std::vector<double> bounds;  // finite upper bounds
  std::vector<double> counts;  // non-cumulative, +Inf bucket last
  double sum = 0.0;

  void add(const Scrape& before, const Scrape& after, const std::string& name);
  double count() const;
  /// Linear interpolation within the bucket holding the rank (the
  /// program's own Histogram::quantile rule); 0 when empty.
  double quantile(double q) const;
};

/// Counter delta between two scrapes.
inline double delta(const Scrape& before, const Scrape& after,
                    const std::string& name) {
  return after.value(name) - before.value(name);
}

/// Counter deltas summed over any number of phases (scrape pairs).
struct Deltas {
  std::map<std::string, double> sum;

  void add(const Scrape& before, const Scrape& after);
  double operator[](const std::string& name) const;
};

/// Fills the per-layer metrics that come straight from the program's
/// counters: per-operation federation, sim and routing work over `ops`
/// operations, plus the process-wide high-water gauges read from `last`.
void counter_layers(Result& result, const Deltas& deltas, double ops,
                    const Scrape& last);

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace sfbench
