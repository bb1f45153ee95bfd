// federate: independent sFlow federations on pristine overlays, one thread,
// closed loop.
//
// The pool mixes the paper's network sizes (10..50) with the four
// requirement shapes of its figures; scenario construction and the routing
// warm-up are set-up.  The pool's topologies and requirements are the same
// in every run (built from a fixed seed); --seed draws which instance of the
// source service each consumer contacts.  With whole scenarios drawn per
// seed, the few heaviest scenarios of a pool set its p99, and that moved
// with the seed by a sixth.  The timed phase federates the pool round-robin in
// whole passes, so every scenario is solved equally often.  There is no
// server, no residual state and no routing write here: the time is the
// protocol simulation plus the local views and local routing databases it
// builds at every hop.
#include <iostream>

#include "alloc_count.hpp"
#include "check/oracles.hpp"
#include "check/validate.hpp"
#include "core/federator.hpp"
#include "core/scenario.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sfbench {
namespace {

using namespace sflow;

constexpr std::uint64_t kPoolSeed = 2004;
constexpr std::size_t kSizes[] = {10, 20, 30, 40, 50};
constexpr overlay::RequirementShape kShapes[] = {
    overlay::RequirementShape::kSinglePath,
    overlay::RequirementShape::kDisjointPaths,
    overlay::RequirementShape::kSplitMerge,
    overlay::RequirementShape::kGenericDag,
};
constexpr std::size_t kPerCombination = 8;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinOps = 2000;
/// Largest network the exhaustive oracle runs on.
constexpr std::size_t kBruteForceMaxSize = 20;

struct Entry {
  core::Scenario scenario;
  std::size_t size = 0;
  std::uint64_t seed = 0;
};

/// Re-pins the requirement's source to an instance of the source service
/// drawn by `rng`: the first, in drawn order, on which the fixed greedy
/// completes (make_scenario's own feasibility rule).  The scenario keeps its
/// own pin when no other instance passes.
void draw_source(core::Scenario& scenario, util::Rng& rng) {
  const overlay::Sid source = scenario.requirement.source();
  std::vector<overlay::OverlayIndex> starts =
      scenario.overlay().instances_of(source);
  rng.shuffle(starts);
  const auto probe = core::make_federator(core::Algorithm::kFixed);
  const overlay::ServiceRequirement own = scenario.requirement;
  for (const overlay::OverlayIndex start : starts) {
    scenario.requirement.pin(source, scenario.overlay().instance(start).nid);
    util::Rng unused(0);
    if (probe->federate(scenario, unused).success) return;
  }
  scenario.requirement = own;
}

std::vector<Entry> build_pool(std::uint64_t seed, double& precompute_ms) {
  std::vector<Entry> pool;
  precompute_ms = 0.0;
  std::uint64_t index = 0;
  for (const std::size_t size : kSizes)
    for (const overlay::RequirementShape shape : kShapes)
      for (std::size_t k = 0; k < kPerCombination; ++k, ++index) {
        core::WorkloadParams params;
        params.network_size = size;
        params.service_type_count = 6;
        params.requirement.shape = shape;
        params.requirement.service_count = 6;
        params.requirement.branch_count = 2;
        Entry entry;
        entry.size = size;
        entry.seed = util::derive_seed(seed, index);
        entry.scenario =
            core::make_scenario(params, util::derive_seed(kPoolSeed, index));
        util::Rng rng(entry.seed);
        draw_source(entry.scenario, rng);
        const Clock::time_point t0 = Clock::now();
        {
          Span span("graph.precompute_all", "setup", index);
          entry.scenario.overlay_routing().precompute_all();
        }
        precompute_ms += ms_between(t0, Clock::now());
        pool.push_back(std::move(entry));
      }
  return pool;
}

struct Phase {
  std::size_t ops = 0;
  std::vector<double> latency_ms, cpu_ms;  // per call
  AllocCounts allocs;
  Deltas counters;
  Scrape last;
};

/// Federates the pool in whole passes for at least `seconds` and kMinOps
/// calls.  `first` gets each scenario's outcome of the first pass, `latest`
/// its most recent one.  With `traced` given, every second pass runs with
/// spans on and is measured into it, so drift of the host falls on both
/// alike and the difference is the tracing overhead.
void timed_phase(const std::vector<Entry>& pool, double seconds,
                 std::vector<core::FederationOutcome>& first,
                 std::vector<core::FederationOutcome>& latest, Phase& plain,
                 Phase* traced) {
  const auto federator = core::make_federator(core::Algorithm::kSflow);
  const std::size_t n = pool.size();
  first.assign(n, {});
  latest.assign(n, {});
  const Clock::time_point start = Clock::now();
  std::size_t ops = 0;
  for (std::size_t pass = 0;
       ops < kMinOps || ms_between(start, Clock::now()) < seconds * 1000.0;
       ++pass) {
    const bool trace_pass = traced != nullptr && pass % 2 == 1;
    Phase& phase = trace_pass ? *traced : plain;
    Tracer::get().set_enabled(trace_pass);
    const Scrape s0 = scrape_registry();
    const AllocCounts a0 = alloc_counts();
    {
      Span span("bench.pass", "", pass);
      for (std::size_t k = 0; k < n; ++k) {
        util::Rng rng(util::derive_seed(pool[k].seed, 1));
        const double cpu0 = process_cpu_s();
        const Clock::time_point c0 = Clock::now();
        core::FederationOutcome outcome;
        {
          Span call("core.federate", "", k);
          outcome = federator->federate(pool[k].scenario, rng);
        }
        phase.latency_ms.push_back(ms_between(c0, Clock::now()));
        phase.cpu_ms.push_back((process_cpu_s() - cpu0) * 1000.0);
        (pass == 0 ? first[k] : latest[k]) = std::move(outcome);
      }
    }
    const AllocCounts a1 = alloc_counts();
    phase.allocs.allocations += a1.allocations - a0.allocations;
    phase.allocs.bytes += a1.bytes - a0.bytes;
    phase.last = scrape_registry();
    phase.counters.add(s0, phase.last);
    phase.ops += n;
    ops += n;
  }
  Tracer::get().set_enabled(false);
}

/// Checks every distinct outcome, outside the timed phase.  A scenario whose
/// sFlow outcome failed or broke the validator fails each of its calls.
/// Returns, per scenario, whether its outcome passed.
std::vector<bool> verify(const std::vector<Entry>& pool, std::size_t ops,
                         const std::vector<core::FederationOutcome>& first,
                         const std::vector<core::FederationOutcome>& latest,
                         Result& result) {
  Span span("verify.outcomes", "verify");
  const auto optimal_solver =
      core::make_federator(core::Algorithm::kGlobalOptimal);
  const std::size_t n = pool.size();
  const std::size_t passes = ops / n;
  result.attempted += ops;
  std::vector<bool> passed(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    const core::Scenario& scenario = pool[k].scenario;
    const core::FederationOutcome& sflow = first[k];
    const std::string where = "scenario " + std::to_string(k) + " (N=" +
                              std::to_string(pool[k].size) + ")";
    const check::ValidationReport report =
        check::validate_flow_graph(scenario.overlay(), scenario.requirement, sflow);
    if (!sflow.success || !report.ok()) {
      std::cerr << "sfbench: " << where << ": sFlow "
                << (sflow.success ? report.to_string() : "failed") << "\n";
      result.failed += passes;
      continue;
    }
    passed[k] = true;
    if (passes > 1 && !latest[k].deterministically_equal(sflow))
      result.violation(where + ": repeated federation gave another outcome");

    util::Rng rng(util::derive_seed(pool[k].seed, 2));
    const core::FederationOutcome optimal = optimal_solver->federate(scenario, rng);
    const check::ValidationReport optimal_report = check::validate_flow_graph(
        scenario.overlay(), scenario.requirement, optimal);
    if (!optimal.success || !optimal_report.ok()) {
      result.violation(where + ": global optimal " +
                       (optimal.success ? optimal_report.to_string() : "failed"));
      continue;
    }
    if (sflow.bandwidth > optimal.bandwidth)
      result.violation(where + ": sFlow bandwidth exceeds global optimal's");
    if (pool[k].size <= kBruteForceMaxSize) {
      const auto brute = check::brute_force_best_quality(
          scenario.overlay(), scenario.requirement, scenario.overlay_routing());
      if (brute && !(*brute == graph::PathQuality{optimal.bandwidth,
                                                  optimal.latency}))
        result.violation(where + ": global optimal differs from brute force");
    }
  }
  return passed;
}

}  // namespace

Result run_federate(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::vector<Entry> pool;
  double precompute_ms = 0.0;
  for (std::size_t s = 0; s < kSetups; ++s) {
    Tracer::get().set_enabled(options.trace && s + 1 == kSetups);
    const Clock::time_point t0 = Clock::now();
    pool = build_pool(options.seed, precompute_ms);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  Tracer::get().set_enabled(false);

  std::vector<core::FederationOutcome> first, latest;
  Phase plain, traced;
  timed_phase(pool, options.seconds, first, latest, plain,
              options.trace ? &traced : nullptr);
  const std::vector<bool> passed =
      verify(pool, plain.ops + traced.ops, first, latest, result);

  std::vector<double> bandwidth, latency;
  for (std::size_t k = 0; k < first.size(); ++k) {
    if (!passed[k]) continue;
    bandwidth.push_back(first[k].bandwidth);
    latency.push_back(first[k].latency);
  }
  const double p50 = grouped_percentile(plain.latency_ms, 0.50);
  // Rates are medians over passes (windowed_rate).
  const std::size_t pass = pool.size();
  const double ops_per_s = windowed_rate(plain.latency_ms, pass);
  result.e2e("setup_s", percentile(setup_s, 0.5), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("ops_per_s", ops_per_s, "1/s");
  result.e2e("ops_per_cpu_s", windowed_rate(plain.cpu_ms, pass), "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.e2e("latency_p99_ms", grouped_percentile(plain.latency_ms, 0.99), "ms");
  result.e2e("flow_mbps", mean(bandwidth), "Mbps");
  result.e2e("flow_latency_ms", mean(latency), "ms");
  result.info.push_back({"federate.scenarios", static_cast<double>(pool.size()),
                         "count"});

  if (!options.trace) return result;

  const std::vector<SpanRecord> spans = Tracer::get().spans();
  const double ops = static_cast<double>(traced.ops);
  auto& l = result.layer;
  counter_layers(result, traced.counters, ops, traced.last);
  const std::vector<double> solve_us = durations_us(spans, "core.federate");
  l["federation.solve_us_p50"] = percentile(solve_us, 0.50);
  l["federation.solve_us_p99"] = percentile(solve_us, 0.99);
  l["federation.allocs_per_op"] =
      ratio(static_cast<double>(traced.allocs.allocations), ops);
  l["federation.alloc_bytes_per_op"] =
      ratio(static_cast<double>(traced.allocs.bytes), ops);
  l["routing.precompute_ms"] = precompute_ms;
  for (const auto& [layer, ms] : layer_self_ms(spans)) l["self_ms." + layer] = ms;
  // Federation calls against the passes they ran in.
  l["trace.reconcile_ratio"] = ratio(total_ms(spans, "core.federate"),
                                     total_ms(spans, "bench.pass"));
  l["trace.overhead_ops_pct"] =
      100.0 * ratio(ops_per_s - windowed_rate(traced.latency_ms, pass), ops_per_s);
  l["trace.overhead_p50_ms"] = grouped_percentile(traced.latency_ms, 0.50) - p50;
  l["trace.spans"] = static_cast<double>(spans.size());
  const std::string path = options.out_dir + "/federate-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (!Tracer::get().write_chrome(path))
    result.violation("cannot write trace file " + path);
  return result;
}

}  // namespace sfbench
