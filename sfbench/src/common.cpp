#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace sfbench {

void Result::violation(const std::string& what) {
  std::cerr << "sfbench: CHECK FAILED: " << what << "\n";
  violations.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"server.response_ms_p50", "ms"},
      {"server.response_ms_p99", "ms"},
      {"server.response_ms_mean", "ms"},
      {"server.wire_ms_mean", "ms"},
      {"server.batch_size_mean", "count"},
      {"server.queue_peak", "count"},
      {"server.backpressure_waits", "count"},
      {"server.presolve_hit_ratio", "ratio"},
      {"federation.solve_us_p50", "us"},
      {"federation.solve_us_p99", "us"},
      {"federation.node_computations_per_op", "count"},
      {"federation.messages_per_op", "count"},
      {"federation.payload_bytes_per_op", "bytes"},
      {"federation.copy_bytes_per_op", "bytes"},
      {"federation.fallbacks_per_op", "count"},
      {"federation.allocs_per_op", "count"},
      {"federation.alloc_bytes_per_op", "bytes"},
      {"sim.underlay_hops_per_op", "count"},
      {"sim.event_queue_peak", "count"},
      {"admission.admit_us_p50", "us"},
      {"admission.reject_us_p50", "us"},
      {"admission.admitted", "count"},
      {"admission.incremental_admissions", "count"},
      {"routing.precompute_ms", "ms"},
      {"routing.relaxations_per_op", "count"},
      {"routing.cache_misses_per_op", "count"},
      {"routing.retarget_us_p50", "us"},
      {"routing.retarget_us_p99", "us"},
      {"routing.invalidated_per_event", "count"},
      {"routing.reswept_per_event", "count"},
      {"routing.rounds_swept_per_event", "count"},
      {"routing.rounds_salvaged_per_event", "count"},
      {"routing.full_rebuilds", "count"},
      {"routing.lazy_repairs_per_event", "count"},
      {"routing.tree_peak_bytes", "bytes"},
      {"refederation.repair_us_p50", "us"},
      {"refederation.repair_us_p99", "us"},
      {"refederation.services_resolved_per_event", "count"},
      {"refederation.search_nodes_per_op", "count"},
      {"open_loop.latency_p50_ms", "ms"},
      {"open_loop.latency_p99_ms", "ms"},
      {"generator.lag_ms_p99", "ms"},
      {"self_ms.server", "ms"},
      {"self_ms.core", "ms"},
      {"self_ms.graph", "ms"},
      {"self_ms.bench", "ms"},
      {"trace.reconcile_ratio", "ratio"},
      {"trace.overhead_ops_pct", "%"},
      {"trace.overhead_p50_ms", "ms"},
      {"trace.spans", "count"},
  };
  return catalog;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

double grouped_percentile(const std::vector<double>& samples, double q) {
  const std::size_t groups = std::max<std::size_t>(1, samples.size() / kGroupSamples);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(g * kGroupSamples);
    const auto last = g + 1 == groups
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(kGroupSamples);
    per_group.push_back(percentile(std::vector<double>(first, last), q));
  }
  return percentile(per_group, 0.5);
}

double windowed_rate(const std::vector<double>& durations_ms,
                     std::size_t window) {
  const std::size_t windows = std::max<std::size_t>(1, durations_ms.size() / window);
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t first = w * window;
    const std::size_t last =
        w + 1 == windows ? durations_ms.size() : first + window;
    double total_ms = 0.0;
    for (std::size_t i = first; i < last; ++i) total_ms += durations_ms[i];
    rates.push_back(ratio(static_cast<double>(last - first), total_ms / 1000.0));
  }
  return percentile(rates, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuStat read_cpu_stat() {
  CpuStat stat;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return stat;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already inside user, so the total stops at steal.
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    stat.total += v;
    if (field == 7) stat.steal = v;
  }
  return stat;
}

double Scrape::value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

Scrape parse_prometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const std::size_t brace = key.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      scrape.values[key] = value;
      continue;
    }
    const std::string name = key.substr(0, brace);
    const std::string le = key.substr(brace + 12, key.size() - brace - 14);
    const double bound = le == "+Inf" ? INFINITY : std::strtod(le.c_str(), nullptr);
    scrape.buckets[name].emplace_back(bound, value);
  }
  return scrape;
}

Scrape scrape_registry() {
  return parse_prometheus(
      sflow::obs::to_prometheus(sflow::obs::Registry::global().snapshot()));
}

void HistogramDelta::add(const Scrape& before, const Scrape& after,
                         const std::string& name) {
  const auto a = after.buckets.find(name);
  if (a == after.buckets.end()) return;
  const auto b = before.buckets.find(name);
  const std::size_t n = a->second.size();
  if (counts.empty()) {
    counts.assign(n, 0.0);
    bounds.clear();
    for (std::size_t i = 0; i + 1 < n; ++i) bounds.push_back(a->second[i].first);
  }
  double previous = 0.0;
  for (std::size_t i = 0; i < n && i < counts.size(); ++i) {
    double cumulative = a->second[i].second;
    if (b != before.buckets.end() && i < b->second.size())
      cumulative -= b->second[i].second;
    counts[i] += cumulative - previous;
    previous = cumulative;
  }
  sum += after.value(name + "_sum") - before.value(name + "_sum");
}

double HistogramDelta::count() const {
  double total = 0.0;
  for (const double c : counts) total += c;
  return total;
}

double HistogramDelta::quantile(double q) const {
  const double total = count();
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + counts[i];
    if (next >= rank && counts[i] > 0.0) {
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      return lower + (bounds[i] - lower) * (rank - cumulative) / counts[i];
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void Deltas::add(const Scrape& before, const Scrape& after) {
  for (const auto& [name, value] : after.values)
    sum[name] += value - before.value(name);
}

double Deltas::operator[](const std::string& name) const {
  const auto it = sum.find(name);
  return it == sum.end() ? 0.0 : it->second;
}

void counter_layers(Result& result, const Deltas& d, double ops,
                    const Scrape& last) {
  auto& l = result.layer;
  l["federation.node_computations_per_op"] =
      ratio(d["federation_node_computations_total"], ops);
  l["federation.messages_per_op"] = ratio(d["protocol_messages_total"], ops);
  l["federation.payload_bytes_per_op"] =
      ratio(d["protocol_payload_bytes_total"], ops);
  l["federation.copy_bytes_per_op"] =
      ratio(d["payload_physical_copy_bytes_total"], ops);
  l["federation.fallbacks_per_op"] =
      ratio(d["federation_global_fallbacks_total"], ops);
  l["sim.underlay_hops_per_op"] = ratio(d["sfederate_underlay_hops_total"], ops);
  l["sim.event_queue_peak"] = last.value("sim_event_queue_depth_peak_total");
  l["routing.relaxations_per_op"] =
      ratio(d["routing_edge_relaxations_total"], ops);
  l["routing.cache_misses_per_op"] = ratio(d["routing_cache_misses_total"], ops);
  l["routing.tree_peak_bytes"] = last.value("routing_tree_peak_bytes");
}

}  // namespace sfbench
