// churn: warm routing databases over N=100 overlays with standing flows,
// absorbing a seeded stream of link-only churn events.
//
// The run holds kOverlays independent N=100 scenarios, each with its own
// warm database and kStandingFlows standing flows.  One event redraws the
// metrics of a few links in every overlay.  The scenarios are the same in
// every run (built from a fixed seed, as storm's hosting is): with scenarios
// drawn per seed, the cost of an event varied by a quarter between seeds,
// and that is the spread of the overlays drawn, not of the code.  --seed
// draws the churn events and which instances of the source service the
// standing flows start at.  Each event's overlay is core::apply_churn of its
// *base* overlay (no instance failures), so the overlay states are
// stationary: consecutive states differ in the links either event touched,
// and the run neither drifts nor degrades with its length.  Generating an
// event is input preparation and is not timed.  The timed work is what an
// operator waits for: per overlay, core::retarget_routing in the program's
// default repair mode, then core::refederate of every standing flow.  An
// event spans all overlays so that its latency is not a mixture of
// per-overlay costs, whose median jumped between the mixture's modes.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>

#include "check/validate.hpp"
#include "core/global_optimal.hpp"
#include "core/refederation.hpp"
#include "core/scenario.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sfbench {
namespace {

using namespace sflow;

constexpr std::uint64_t kOverlaySeed = 31337;  // bench/churn_refederation's
constexpr std::size_t kNetworkSize = 100;
constexpr std::size_t kOverlays = 4;
constexpr std::size_t kStandingFlows = 4;
constexpr double kLinkChurnFraction = 0.0005;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinEvents = 1000;
/// Flow quality is averaged over this fixed prefix of events, so it is the
/// same for every run of a seed.
constexpr std::size_t kFlowPrefixEvents = 100;
/// Every this many events the retargeted database is compared with a
/// fresh build on all pairs.
constexpr std::size_t kFullCheckEvery = 100;
constexpr std::size_t kSampledPairs = 4;  // per overlay and event
/// Events per window of the throughput median (windowed_rate).
constexpr std::size_t kRateWindow = 128;

struct Standing {
  overlay::ServiceRequirement requirement;
  overlay::ServiceFlowGraph flow;
};

struct Setup {
  core::Scenario scenario;
  std::vector<Standing> flows;
  double precompute_ms = 0.0;
};

/// Overlay `m`; its standing flows are its requirement with the source
/// pinned to kStandingFlows instances of the source service drawn by `seed`,
/// solved optimally on the warm database.
Setup set_up(std::size_t m, std::uint64_t seed) {
  Setup setup;
  core::WorkloadParams params;
  params.network_size = kNetworkSize;
  params.service_type_count = 6;
  params.requirement.service_count = 6;
  params.requirement.shape = overlay::RequirementShape::kGenericDag;
  setup.scenario =
      core::make_scenario(params, util::derive_seed(kOverlaySeed, m));
  const core::Scenario& scenario = setup.scenario;
  const Clock::time_point t0 = Clock::now();
  {
    Span span("graph.precompute_all", "setup", m);
    scenario.overlay_routing().precompute_all();
  }
  setup.precompute_ms = ms_between(t0, Clock::now());
  const overlay::Sid source = scenario.requirement.source();
  std::vector<overlay::OverlayIndex> starts = scenario.overlay().instances_of(source);
  util::Rng rng(util::derive_seed(seed, m));
  rng.shuffle(starts);
  for (const overlay::OverlayIndex instance : starts) {
    if (setup.flows.size() == kStandingFlows) break;
    Standing standing{scenario.requirement, {}};
    standing.requirement.pin(source, scenario.overlay().instance(instance).nid);
    auto flow = core::optimal_flow_graph(scenario.overlay(), standing.requirement,
                                         scenario.overlay_routing());
    if (!flow) continue;
    standing.flow = std::move(*flow);
    setup.flows.push_back(std::move(standing));
  }
  if (setup.flows.empty())
    throw std::runtime_error("churn: no standing flow could be solved");
  return setup;
}

/// The benchmark's own shortest-widest computation for one pair: the widest
/// bottleneck by a max-min Dijkstra, then the least latency over links at
/// least that wide.
graph::PathQuality reference_quality(const graph::Digraph& g,
                                     graph::NodeIndex from, graph::NodeIndex to) {
  const std::size_t n = g.node_count();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> width(n, 0.0);
  width[static_cast<std::size_t>(from)] = inf;
  std::priority_queue<std::pair<double, graph::NodeIndex>> wide;
  wide.push({inf, from});
  while (!wide.empty()) {
    const auto [w, u] = wide.top();
    wide.pop();
    if (w < width[static_cast<std::size_t>(u)]) continue;
    for (const graph::EdgeIndex e : g.out_edges(u)) {
      const graph::Edge& edge = g.edge(e);
      const double through = std::min(w, edge.metrics.bandwidth);
      if (through > width[static_cast<std::size_t>(edge.to)]) {
        width[static_cast<std::size_t>(edge.to)] = through;
        wide.push({through, edge.to});
      }
    }
  }
  if (from == to) return graph::PathQuality::source();
  const double target = width[static_cast<std::size_t>(to)];
  if (target <= 0.0) return graph::PathQuality::unreachable();
  std::vector<double> dist(n, inf);
  dist[static_cast<std::size_t>(from)] = 0.0;
  using Item = std::pair<double, graph::NodeIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> near;
  near.push({0.0, from});
  while (!near.empty()) {
    const auto [d, u] = near.top();
    near.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const graph::EdgeIndex e : g.out_edges(u)) {
      const graph::Edge& edge = g.edge(e);
      if (edge.metrics.bandwidth < target) continue;
      const double through = d + edge.metrics.latency;
      if (through < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = through;
        near.push({through, edge.to});
      }
    }
  }
  return {target, dist[static_cast<std::size_t>(to)]};
}

/// Retargeted database against a fresh build, on all pairs.
bool equals_fresh(const graph::AllPairsShortestWidest& db,
                  const overlay::OverlayGraph& overlay) {
  const graph::AllPairsShortestWidest fresh(overlay.graph());
  const auto n = static_cast<graph::NodeIndex>(overlay.instance_count());
  for (graph::NodeIndex s = 0; s < n; ++s)
    for (graph::NodeIndex t = 0; t < n; ++t) {
      if (!(db.quality(s, t) == fresh.quality(s, t))) return false;
      const auto a = db.path_view(s, t);
      const auto b = fresh.path_view(s, t);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
    }
  return true;
}

struct Phase {
  std::size_t events = 0;
  std::vector<double> latency_ms, cpu_ms;  // per event
  std::vector<double> retarget_us, repair_us;
  std::vector<double> flow_bandwidth, flow_latency;
  graph::GraphDiffStats diff;
  double services_resolved = 0.0;
  double repairs = 0.0;
  Deltas counters;
  Scrape last;
};

/// One overlay's live state while events are absorbed.
struct Live {
  const Setup* setup = nullptr;
  std::shared_ptr<const overlay::OverlayGraph> current;
  const graph::AllPairsShortestWidest* warm = nullptr;
  std::unique_ptr<graph::AllPairsShortestWidest> owned;
  std::vector<Standing> flows;
};

/// Checks one overlay's share of an event, outside the timed part and the
/// counter deltas.  Returns false when a flow could not be repaired or broke
/// the validator; on success the repaired flows become the standing ones.
bool check_overlay(Live& o, const overlay::OverlayGraph& next,
                   const core::RetargetedRouting& retargeted,
                   const std::vector<core::RefederationResult>& repaired,
                   std::size_t e, std::size_t m, std::uint64_t seed,
                   Phase& plain, Phase& phase, Result& result) {
  const std::string where =
      "event " + std::to_string(e) + " overlay " + std::to_string(m);
  const graph::GraphDiffStats& d = retargeted.diff;
  phase.diff.invalidated_sources += d.invalidated_sources;
  phase.diff.reswept_sources += d.reswept_sources;
  phase.diff.rounds_swept += d.rounds_swept;
  phase.diff.rounds_salvaged += d.rounds_salvaged;
  phase.diff.full_rebuilds += d.full_rebuilds;
  if (!retargeted.incremental)
    result.violation(where + ": link-only churn was not retargeted incrementally");
  bool ok = true;
  for (std::size_t k = 0; k < o.flows.size(); ++k) {
    const core::RefederationResult& r = repaired[k];
    phase.services_resolved += static_cast<double>(r.services_resolved);
    phase.repairs += 1.0;
    if (!r.graph) {
      ok = false;
      continue;
    }
    const check::ValidationReport report =
        check::validate_flow_graph(next, o.flows[k].requirement, *r.graph);
    if (!report.ok()) {
      std::cerr << "sfbench: " << where << " flow " << k << ": "
                << report.to_string() << "\n";
      ok = false;
      continue;
    }
    if (e < kFlowPrefixEvents) {
      plain.flow_bandwidth.push_back(r.graph->bottleneck_bandwidth());
      plain.flow_latency.push_back(
          r.graph->end_to_end_latency(o.flows[k].requirement));
    }
    o.flows[k].flow = *r.graph;
  }
  // Queries build trees a database lacks, so the checks read a copy: the
  // next event must find the database as the timed work left it.
  const auto probe = retargeted.routing->clone();
  if (e % kFullCheckEvery == 0 && !equals_fresh(*probe, next))
    result.violation(where + ": retargeted database differs from a fresh build");
  util::Rng pair_rng(util::derive_seed(seed, 0xA000 + e * kOverlays + m));
  const auto n = static_cast<std::int64_t>(next.instance_count());
  for (std::size_t p = 0; p < kSampledPairs; ++p) {
    const auto s = static_cast<graph::NodeIndex>(pair_rng.uniform_int(0, n - 1));
    const auto t = static_cast<graph::NodeIndex>(pair_rng.uniform_int(0, n - 1));
    const graph::PathQuality want = reference_quality(next.graph(), s, t);
    const graph::PathQuality got = probe->quality(s, t);
    // Bandwidth is a min over links and must match exactly; latency sums
    // may differ in the last bits between equally short paths.
    if (got.bandwidth != want.bandwidth ||
        std::abs(got.latency - want.latency) > 1e-9 * std::max(1.0, want.latency))
      result.violation(where + ": pair " + std::to_string(s) + "->" +
                       std::to_string(t) +
                       " disagrees with the reference shortest-widest");
  }
  return ok;
}

/// Absorbs events for at least `seconds` and kMinEvents events, starting
/// every overlay at its base state.  One event redraws a few links of every
/// overlay; its latency runs from the new overlays being handed over to the
/// last standing flow being repaired.  Checks run between events, outside
/// the timed part and outside the counter deltas.  With `traced` given,
/// every second event runs with spans on and is measured into it, so drift
/// of the host falls on both alike and the difference is the tracing
/// overhead.  Flow quality always goes to `plain`.
void run_events(const std::vector<Setup>& setups, std::uint64_t seed,
                double seconds, Result& result, Phase& plain, Phase* traced) {
  std::vector<Live> live(setups.size());
  for (std::size_t m = 0; m < setups.size(); ++m) {
    live[m].setup = &setups[m];
    live[m].current =
        std::make_shared<const overlay::OverlayGraph>(setups[m].scenario.overlay());
    live[m].warm = &setups[m].scenario.overlay_routing();
    live[m].flows = setups[m].flows;
  }
  core::ChurnParams churn;
  churn.link_churn_fraction = kLinkChurnFraction;
  churn.bandwidth_jitter = 0.6;
  churn.latency_jitter = 0.6;

  const Clock::time_point start = Clock::now();
  for (std::size_t e = 0;; ++e) {
    if (e >= kMinEvents && e >= kFlowPrefixEvents &&
        ms_between(start, Clock::now()) >= seconds * 1000.0)
      break;
    const bool trace_event = traced != nullptr && e % 2 == 1;
    Phase& phase = trace_event ? *traced : plain;
    Tracer::get().set_enabled(trace_event);
    std::vector<std::shared_ptr<const overlay::OverlayGraph>> next(live.size());
    for (std::size_t m = 0; m < live.size(); ++m) {
      util::Rng rng(util::derive_seed(seed, 0xE000 + e * kOverlays + m));
      next[m] = std::make_shared<const overlay::OverlayGraph>(
          core::apply_churn(live[m].setup->scenario.overlay(), churn, rng));
    }
    std::vector<core::RetargetedRouting> retargeted(live.size());
    std::vector<std::vector<core::RefederationResult>> repaired(live.size());

    const Scrape s0 = scrape_registry();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    {
      Span event("bench.event", "", e);
      for (std::size_t m = 0; m < live.size(); ++m) {
        Live& o = live[m];
        const Clock::time_point r0 = Clock::now();
        {
          Span span("graph.retarget_routing", "", m);
          retargeted[m] = core::retarget_routing(*o.warm, *o.current, *next[m]);
        }
        phase.retarget_us.push_back(ms_between(r0, Clock::now()) * 1000.0);
        repaired[m].resize(o.flows.size());
        for (std::size_t k = 0; k < o.flows.size(); ++k) {
          const Clock::time_point f0 = Clock::now();
          {
            Span span("core.refederate", "", k);
            repaired[m][k] = core::refederate(
                *o.current, *next[m], *retargeted[m].routing,
                o.flows[k].requirement, o.flows[k].flow);
          }
          phase.repair_us.push_back(ms_between(f0, Clock::now()) * 1000.0);
        }
      }
    }
    const Clock::time_point t1 = Clock::now();
    phase.cpu_ms.push_back((process_cpu_s() - cpu0) * 1000.0);
    const Scrape s1 = scrape_registry();
    phase.counters.add(s0, s1);
    phase.last = s1;
    phase.latency_ms.push_back(ms_between(t0, t1));
    ++phase.events;

    Span verify_span("verify.event", "verify", e);
    ++result.attempted;
    bool event_ok = true;
    for (std::size_t m = 0; m < live.size(); ++m) {
      event_ok &= check_overlay(live[m], *next[m], retargeted[m], repaired[m], e,
                                m, seed, plain, phase, result);
      live[m].current = std::move(next[m]);
      live[m].owned = std::move(retargeted[m].routing);
      live[m].warm = live[m].owned.get();
    }
    if (!event_ok) ++result.failed;
  }
  Tracer::get().set_enabled(false);
}

}  // namespace

Result run_churn(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::vector<Setup> setups;
  double precompute_ms = 0.0;
  for (std::size_t s = 0; s < kSetups; ++s) {
    Tracer::get().set_enabled(options.trace && s + 1 == kSetups);
    const Clock::time_point t0 = Clock::now();
    setups.clear();
    precompute_ms = 0.0;
    for (std::size_t m = 0; m < kOverlays; ++m) {
      setups.push_back(set_up(m, options.seed));
      precompute_ms += setups.back().precompute_ms;
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  Tracer::get().set_enabled(false);

  Phase plain, t;
  run_events(setups, options.seed, options.seconds, result, plain,
             options.trace ? &t : nullptr);
  const double events = static_cast<double>(plain.events);
  const double ops_per_s = windowed_rate(plain.latency_ms, kRateWindow);
  const double p50 = grouped_percentile(plain.latency_ms, 0.50);
  result.e2e("setup_s", percentile(setup_s, 0.5), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("ops_per_s", ops_per_s, "1/s");
  result.e2e("ops_per_cpu_s", windowed_rate(plain.cpu_ms, kRateWindow), "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.e2e("latency_p99_ms", grouped_percentile(plain.latency_ms, 0.99), "ms");
  result.e2e("flow_mbps", mean(plain.flow_bandwidth), "Mbps");
  result.e2e("flow_latency_ms", mean(plain.flow_latency), "ms");
  double flows = 0.0;
  for (const Setup& setup : setups) flows += static_cast<double>(setup.flows.size());
  result.info.push_back({"churn.standing_flows", flows, "count"});
  result.info.push_back({"churn.events", events, "count"});

  if (!options.trace) return result;

  const std::vector<SpanRecord> spans = Tracer::get().spans();
  const double ev = static_cast<double>(t.events);
  auto& l = result.layer;
  counter_layers(result, t.counters, ev, t.last);
  l["routing.precompute_ms"] = precompute_ms;
  l["routing.retarget_us_p50"] = percentile(t.retarget_us, 0.50);
  l["routing.retarget_us_p99"] = percentile(t.retarget_us, 0.99);
  l["routing.invalidated_per_event"] =
      ratio(static_cast<double>(t.diff.invalidated_sources), ev);
  l["routing.reswept_per_event"] =
      ratio(static_cast<double>(t.diff.reswept_sources), ev);
  l["routing.rounds_swept_per_event"] =
      ratio(static_cast<double>(t.diff.rounds_swept), ev);
  l["routing.rounds_salvaged_per_event"] =
      ratio(static_cast<double>(t.diff.rounds_salvaged), ev);
  l["routing.full_rebuilds"] = static_cast<double>(t.diff.full_rebuilds);
  l["routing.lazy_repairs_per_event"] =
      ratio(t.counters["routing_lazy_repairs_total"], ev);
  l["refederation.repair_us_p50"] = percentile(t.repair_us, 0.50);
  l["refederation.repair_us_p99"] = percentile(t.repair_us, 0.99);
  l["refederation.services_resolved_per_event"] = ratio(t.services_resolved, ev);
  l["refederation.search_nodes_per_op"] =
      ratio(t.counters["federation_search_nodes_total"], t.repairs);
  for (const auto& [layer, ms] : layer_self_ms(spans)) l["self_ms." + layer] = ms;
  // Retarget plus refederate against the event latency they make up.
  l["trace.reconcile_ratio"] =
      ratio(total_ms(spans, "graph.retarget_routing") +
                total_ms(spans, "core.refederate"),
            total_ms(spans, "bench.event"));
  l["trace.overhead_ops_pct"] =
      100.0 * ratio(ops_per_s - windowed_rate(t.latency_ms, kRateWindow), ops_per_s);
  l["trace.overhead_p50_ms"] = grouped_percentile(t.latency_ms, 0.50) - p50;
  l["trace.spans"] = static_cast<double>(spans.size());
  const std::string path = options.out_dir + "/churn-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (!Tracer::get().write_chrome(path))
    result.violation("cannot write trace file " + path);
  return result;
}

}  // namespace sfbench
