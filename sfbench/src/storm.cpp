// storm: the in-process sflowd engine serving a seeded stream of chain
// requirements over one connection.
//
// A run is a sequence of rounds.  Each round starts a fresh Server on the
// N=30 hosting of bench/request_storm (fixed hosting seed, so only the
// request stream depends on --seed) and serves two phases:
//
//   open loop    kOpenRequests requests on a seeded Poisson schedule at
//                kOpenRate; each is timed from its due time, so a stall
//                shows in every later request's latency.
//   closed loop  kClosedRequests requests with kInFlight outstanding, each
//                timed from its write to its response.
//
// The end-to-end latency is the closed loop's; the open loop's due-time
// latency is reported per layer.  On a shared 4-vCPU VM the open-loop tail
// followed the host's CPU steal (p99 from 2.4 to 8 ms across ten seeds of
// one build), while the closed loop's, on a CPU that never idles, stayed
// within 2.4-2.9 ms.
//
// One connection means the served order is the generated order, so every
// decision repeats exactly for a seed.  Rounds exist because flows never
// leave the overlay: after about eight admissions a server only rejects, and
// the admitted flows of one server are too few for a steady mean rate.
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "alloc_count.hpp"
#include "check/validate.hpp"
#include "core/admission.hpp"
#include "server/frame.hpp"
#include "server/hosting.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sfbench {
namespace {

using namespace sflow;

constexpr std::uint64_t kHostingSeed = 2004;  // bench/request_storm's default
constexpr std::size_t kServices = 5;
constexpr std::size_t kOpenRequests = 250;
constexpr double kOpenRate = 500.0;  // requests per second
constexpr std::size_t kClosedRequests = 500;
constexpr std::ptrdiff_t kInFlight = 4;
constexpr std::size_t kPresolveThreads = 2;  // sflowd's default
/// Every run serves at least this many rounds; flow quality is averaged over
/// exactly these, so it is fixed for a seed.
constexpr std::size_t kMinRounds = 24;

/// A chain requirement over the hosted services (bench/request_storm's mix:
/// 2..kServices hops from a random start, wrapping around).
std::string draw_requirement(util::Rng& rng) {
  const auto start = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kServices) - 1));
  const auto hops = static_cast<std::size_t>(
      rng.uniform_int(2, static_cast<std::int64_t>(kServices)));
  std::ostringstream out;
  for (std::size_t h = 0; h + 1 < hops; ++h)
    out << 'S' << (start + h) % kServices << " -> S"
        << (start + h + 1) % kServices << '\n';
  return out.str();
}

/// The round's inputs: requirement texts (open phase first) and the open
/// phase's due times as offsets from its start.
struct Stream {
  std::vector<std::string> texts;
  std::vector<double> due_ms;
};

Stream make_stream(std::uint64_t seed, std::size_t round) {
  util::Rng rng(util::derive_seed(seed, 0x5700 + round));
  Stream stream;
  double t = 0.0;
  for (std::size_t i = 0; i < kOpenRequests + kClosedRequests; ++i) {
    if (i < kOpenRequests) {
      t += -1000.0 / kOpenRate * std::log(1.0 - rng.uniform_real(0.0, 1.0));
      stream.due_ms.push_back(t);
    }
    stream.texts.push_back(draw_requirement(rng));
  }
  return stream;
}

std::string scrape_text(int fd) {
  server::write_frame(fd, "GET /metrics");
  std::string text;
  if (!server::read_frame(fd, text))
    throw std::runtime_error("storm: connection closed during a scrape");
  return text;
}

enum class Status { kMissing, kAdmitted, kRejected, kError };

Status parse_status(const std::string& response) {
  if (response.rfind("status: admitted", 0) == 0) return Status::kAdmitted;
  if (response.rfind("status: rejected", 0) == 0) return Status::kRejected;
  return Status::kError;
}

/// What the timed phases of all rounds of one kind (traced or not) measured.
struct Measured {
  std::vector<double> open_ms;    // open loop, due -> response
  std::vector<double> lag_ms;     // open loop, due -> write
  std::vector<double> closed_ms;  // closed loop, write -> response
  // One entry per round: closed-loop throughput per wall and per CPU
  // second.  The run reports their medians, which a stalled round (CPU
  // steal on a shared host) does not move.
  std::vector<double> round_ops_per_s, round_ops_per_cpu_s;
  double timed_s = 0.0;
  HistogramDelta response_ms;      // server histogram, closed phases
  Deltas counters;                 // both phases
  double requests = 0.0;
  std::vector<double> admit_us, reject_us, solve_us;
  double replay_allocs = 0.0, replay_alloc_bytes = 0.0, replay_solves = 0.0;
};

struct RoundServer {
  std::unique_ptr<server::Server> daemon;
  int fd = -1;
  server::ServerConfig config;
};

RoundServer start_server(std::uint64_t seed, std::size_t round) {
  server::HostingConfig hosting;
  hosting.network_size = 30;
  hosting.service_count = kServices;
  hosting.instances_per_service = 3;
  hosting.seed = kHostingSeed;
  RoundServer rs;
  rs.config.seed = util::derive_seed(seed, round);
  rs.config.presolve_threads = kPresolveThreads;
  rs.daemon = std::make_unique<server::Server>(
      server::make_hosting_scenario(hosting), rs.config);
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0)
    throw std::runtime_error(std::string("socketpair: ") + std::strerror(errno));
  rs.daemon->adopt_connection(pair[0]);
  rs.fd = pair[1];
  return rs;
}

/// Serves one round's stream; returns the per-request response statuses.
std::vector<Status> serve_round(RoundServer& rs, const Stream& stream,
                                Measured& m) {
  const std::size_t total = stream.texts.size();
  std::vector<Status> status(total, Status::kMissing);
  std::vector<Clock::time_point> written(total), received(total);
  const int fd = rs.fd;

  const auto receive = [&](std::size_t from, std::size_t to,
                           std::counting_semaphore<>* slots) {
    std::string response;
    for (std::size_t i = from; i < to; ++i) {
      if (!server::read_frame(fd, response)) return;
      received[i] = Clock::now();
      status[i] = parse_status(response);
      if (slots != nullptr) slots->release();
    }
  };

  // Open loop.
  const Scrape s0 = parse_prometheus(scrape_text(fd));
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(1);
  std::vector<Clock::time_point> due(kOpenRequests);
  for (std::size_t i = 0; i < kOpenRequests; ++i)
    due[i] = open_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  stream.due_ms[i]));
  std::uint64_t open_span = 0, closed_span = 0;
  {
    Span phase("bench.open_phase");
    open_span = phase.id();
    std::jthread receiver(receive, 0, kOpenRequests, nullptr);
    for (std::size_t i = 0; i < kOpenRequests; ++i) {
      std::this_thread::sleep_until(due[i]);
      written[i] = Clock::now();
      server::write_frame(fd, stream.texts[i]);
    }
  }
  const Clock::time_point open_end = Clock::now();
  const Scrape s1 = parse_prometheus(scrape_text(fd));

  // Closed loop.
  std::counting_semaphore<> slots(kInFlight);
  const double cpu0 = process_cpu_s();
  const Clock::time_point closed_start = Clock::now();
  {
    Span phase("bench.closed_phase");
    closed_span = phase.id();
    std::jthread receiver(receive, kOpenRequests, total, &slots);
    for (std::size_t i = kOpenRequests; i < total; ++i) {
      slots.acquire();
      written[i] = Clock::now();
      server::write_frame(fd, stream.texts[i]);
    }
  }
  const Clock::time_point closed_end = Clock::now();
  const double cpu1 = process_cpu_s();
  const Scrape s2 = parse_prometheus(scrape_text(fd));

  for (std::size_t i = 0; i < kOpenRequests; ++i) {
    if (status[i] == Status::kMissing) continue;
    m.open_ms.push_back(ms_between(due[i], received[i]));
    m.lag_ms.push_back(ms_between(due[i], written[i]));
    Tracer::get().record("server.request", "", due[i], received[i], i,
                         open_span);
  }
  for (std::size_t i = kOpenRequests; i < total; ++i) {
    if (status[i] == Status::kMissing) continue;
    m.closed_ms.push_back(ms_between(written[i], received[i]));
    Tracer::get().record("server.request", "", written[i], received[i], i,
                         closed_span);
  }
  const double closed = static_cast<double>(kClosedRequests);
  m.round_ops_per_s.push_back(
      closed / (ms_between(closed_start, closed_end) / 1000.0));
  m.round_ops_per_cpu_s.push_back(ratio(closed, cpu1 - cpu0));
  m.timed_s += ms_between(open_start, open_end) / 1000.0 +
               ms_between(closed_start, closed_end) / 1000.0;
  m.response_ms.add(s1, s2, "server_request_latency_ms");
  m.counters.add(s0, s2);
  m.requests += static_cast<double>(total);
  return status;
}

bool same_decision(const core::AdmissionDecision& a,
                   const core::AdmissionDecision& b) {
  return a.admitted == b.admitted && a.rate == b.rate &&
         a.outcome.deterministically_equal(b.outcome);
}

/// One line per round: the decisions as admitted flags and exact rates.
std::string decision_digest(const std::vector<server::ServedRequest>& history) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const server::ServedRequest& served : history)
    if (served.decision.admitted) out << served.decision.request_index << ':'
                                      << served.decision.rate << ' ';
  out << "n=" << history.size();
  return out.str();
}

/// Storm decisions must repeat across runs of one seed.  The first run of a
/// seed of one version of the code records each round's digest; later runs
/// of that seed and version compare against it.
class DecisionLog {
 public:
  explicit DecisionLog(const Options& options)
      : path_(options.out_dir + "/storm-decisions-" + options.source_digest +
              "-seed" + std::to_string(options.seed) + ".txt") {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) rounds_.push_back(line);
  }

  /// False when round `r` was recorded before with different decisions.
  bool check(std::size_t r, const std::string& digest) {
    if (r < rounds_.size()) return rounds_[r] == digest;
    if (r == rounds_.size()) {
      rounds_.push_back(digest);
      std::ofstream(path_, std::ios::app) << digest << '\n';
    }
    return true;
  }

 private:
  std::string path_;
  std::vector<std::string> rounds_;
};

/// Verification of one finished round, outside every timed window.
void verify_round(const RoundServer& rs, const Stream& stream,
                  const std::vector<Status>& status, std::size_t round,
                  DecisionLog& log, Result& result) {
  Span span("verify.round", "verify", round);
  const std::vector<server::ServedRequest>& history = rs.daemon->history();
  const std::size_t total = stream.texts.size();
  result.attempted += total;
  for (std::size_t i = 0; i < total; ++i) {
    const bool missing = status[i] == Status::kMissing;
    const bool error = status[i] == Status::kError;
    const bool mismatch =
        !missing && !error && i < history.size() &&
        (status[i] == Status::kAdmitted) != history[i].decision.admitted;
    if (missing || error || mismatch || i >= history.size()) ++result.failed;
  }
  if (history.size() != total) {
    result.violation("round " + std::to_string(round) + ": history has " +
                     std::to_string(history.size()) + " of " +
                     std::to_string(total) + " requests");
    return;
  }

  std::vector<overlay::ServiceRequirement> requests;
  requests.reserve(history.size());
  for (const server::ServedRequest& served : history)
    requests.push_back(served.requirement);
  const core::Scenario& scenario = rs.daemon->scenario();
  const core::AdmissionResult replay = core::run_admission_sequence(
      scenario, requests, rs.config.admission, rs.config.seed);
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (!same_decision(history[i].decision, replay.decisions[i])) {
      result.violation("round " + std::to_string(round) + ": request " +
                       std::to_string(i) +
                       " differs from the sequential replay");
      break;
    }
  }
  const check::ValidationReport sequence = check::validate_admission_sequence(
      scenario, requests, replay, rs.config.admission);
  if (!sequence.ok())
    result.violation("round " + std::to_string(round) +
                     ": admission sequence: " + sequence.to_string());
  const check::ValidationReport conservation = check::validate_conservation(
      rs.daemon->view().base(), scenario.underlay, scenario.routing.get(),
      rs.daemon->view().admitted());
  if (!conservation.ok())
    result.violation("round " + std::to_string(round) +
                     ": conservation: " + conservation.to_string());
  if (!log.check(round, decision_digest(history)))
    result.violation("round " + std::to_string(round) +
                     ": decisions differ from an earlier run of this seed");
}

/// The served stream once more, serially through the public admission
/// primitives, with a span around each call: the per-call split of core
/// time the server's threads hide.  Decisions must equal the served ones.
void timed_replay(const RoundServer& rs, Measured& m, Result& result) {
  const core::Scenario& scenario = rs.daemon->scenario();
  const auto federator =
      core::make_federator(rs.config.admission.algorithm,
                           rs.config.admission.sflow);
  overlay::ResidualOverlay view = scenario.view;
  const std::vector<server::ServedRequest>& history = rs.daemon->history();
  Span replay("bench.replay");
  for (std::size_t i = 0; i < history.size(); ++i) {
    util::Rng rng(util::derive_seed(rs.config.seed, i));
    const AllocCounts a0 = alloc_counts();
    const Clock::time_point t0 = Clock::now();
    core::FederationOutcome outcome;
    {
      Span span("core.federate", "", i);
      outcome = federator->federate(
          core::admission_view(scenario, view, history[i].requirement), rng);
    }
    const Clock::time_point t1 = Clock::now();
    const AllocCounts a1 = alloc_counts();
    core::AdmissionDecision decision;
    {
      Span span("core.apply_admission", "", i);
      decision = core::apply_admission(scenario, view, i, rs.config.admission,
                                       std::move(outcome));
    }
    const Clock::time_point t2 = Clock::now();
    m.solve_us.push_back(ms_between(t0, t1) * 1000.0);
    (decision.admitted ? m.admit_us : m.reject_us)
        .push_back(ms_between(t1, t2) * 1000.0);
    m.replay_allocs += static_cast<double>(a1.allocations - a0.allocations);
    m.replay_alloc_bytes += static_cast<double>(a1.bytes - a0.bytes);
    m.replay_solves += 1.0;
    if (!same_decision(decision, history[i].decision)) {
      result.violation("timed replay diverged at request " + std::to_string(i));
      return;
    }
  }
}

/// Confines the calling thread, and so every thread it starts later, to the
/// first CPU it may run on.  On a shared VM a request handed between threads
/// on different vCPUs waits whenever the hypervisor has the target vCPU
/// parked; those waits ran to tens of milliseconds and set the storm's tail
/// (p99 from 6 to 16 ms across runs of one build).  On one vCPU the handoffs
/// stay local and the tail is the program's own.
void confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("storm: sched_getaffinity failed");
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
      throw std::runtime_error("storm: sched_setaffinity failed");
    return;
  }
}

}  // namespace

Result run_storm(const Options& options) {
  confine_to_one_cpu();
  Result result;
  DecisionLog log(options);
  Measured plain, traced;
  std::vector<double> setup_s, precompute_ms;
  std::vector<double> admitted_rate, admitted_latency;
  const double budget_s = options.seconds;
  Scrape last;
  for (std::size_t round = 0;
       round < kMinRounds || plain.timed_s + traced.timed_s < budget_s;
       ++round) {
    const Stream stream = make_stream(options.seed, round);
    // Odd rounds of a traced run are traced; the even ones give the
    // untraced figures the tracing overhead is measured against.
    const bool trace_round = options.trace && round % 2 == 1;
    Tracer::get().set_enabled(trace_round);
    Measured& m = trace_round ? traced : plain;

    const Scrape before_setup = scrape_registry();
    const Clock::time_point t0 = Clock::now();
    RoundServer rs;
    {
      Span span("bench.setup", "setup", round);
      rs = start_server(options.seed, round);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    precompute_ms.push_back(delta(before_setup, scrape_registry(),
                                  "routing_precompute_ms_sum"));

    const std::vector<Status> status = serve_round(rs, stream, m);
    ::shutdown(rs.fd, SHUT_WR);
    rs.daemon->stop();
    ::close(rs.fd);
    last = scrape_registry();

    verify_round(rs, stream, status, round, log, result);
    if (round < kMinRounds)
      for (const server::ServedRequest& served : rs.daemon->history()) {
        if (!served.decision.admitted) continue;
        admitted_rate.push_back(served.decision.rate);
        admitted_latency.push_back(served.decision.outcome.latency);
      }
    if (trace_round) timed_replay(rs, m, result);
  }
  Tracer::get().set_enabled(false);

  // End-to-end figures come from the untraced rounds.
  const double p50 = grouped_percentile(plain.closed_ms, 0.50);
  const double ops_per_s = percentile(plain.round_ops_per_s, 0.50);
  result.e2e("setup_s", percentile(setup_s, 0.5), "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.e2e("ops_per_s", ops_per_s, "1/s");
  result.e2e("ops_per_cpu_s", percentile(plain.round_ops_per_cpu_s, 0.50), "1/s");
  result.e2e("latency_p50_ms", p50, "ms");
  result.e2e("latency_p99_ms", grouped_percentile(plain.closed_ms, 0.99), "ms");
  result.e2e("flow_mbps", mean(admitted_rate), "Mbps");
  result.e2e("flow_latency_ms", mean(admitted_latency), "ms");
  result.info.push_back({"storm.latency_samples",
                         static_cast<double>(plain.closed_ms.size()), "count"});
  result.info.push_back({"storm.admitted_flows",
                         static_cast<double>(admitted_rate.size()), "count"});

  if (!options.trace) return result;

  // Per-layer figures from the traced rounds.
  const Measured& t = traced;
  auto& l = result.layer;
  const double traced_p50 = grouped_percentile(t.closed_ms, 0.50);
  l["server.response_ms_p50"] = t.response_ms.quantile(0.50);
  l["server.response_ms_p99"] = t.response_ms.quantile(0.99);
  // The program's histogram buckets are too coarse for a sub-millisecond
  // p50 difference (it read below zero); the means are exact.
  const double response_mean = ratio(t.response_ms.sum, t.response_ms.count());
  l["server.response_ms_mean"] = response_mean;
  l["server.wire_ms_mean"] = mean(t.closed_ms) - response_mean;
  l["server.batch_size_mean"] =
      ratio(t.counters["server_requests_total"], t.counters["server_batches_total"]);
  l["server.queue_peak"] = last.value("server_queue_depth_peak_total");
  l["server.backpressure_waits"] = t.counters["server_backpressure_waits_total"];
  l["server.presolve_hit_ratio"] =
      ratio(t.counters["server_batch_presolve_hits_total"],
            t.counters["server_requests_total"]);
  counter_layers(result, t.counters, t.requests, last);
  l["federation.solve_us_p50"] = percentile(t.solve_us, 0.50);
  l["federation.solve_us_p99"] = percentile(t.solve_us, 0.99);
  l["federation.allocs_per_op"] = ratio(t.replay_allocs, t.replay_solves);
  l["federation.alloc_bytes_per_op"] = ratio(t.replay_alloc_bytes, t.replay_solves);
  l["admission.admit_us_p50"] = percentile(t.admit_us, 0.50);
  l["admission.reject_us_p50"] = percentile(t.reject_us, 0.50);
  l["admission.admitted"] = t.counters["server_admitted_total"];
  l["admission.incremental_admissions"] =
      t.counters["residual_incremental_admissions_total"];
  l["routing.precompute_ms"] = percentile(precompute_ms, 0.5);
  l["open_loop.latency_p50_ms"] = grouped_percentile(t.open_ms, 0.50);
  l["open_loop.latency_p99_ms"] = grouped_percentile(t.open_ms, 0.99);
  l["generator.lag_ms_p99"] = grouped_percentile(t.lag_ms, 0.99);

  const std::vector<SpanRecord> spans = Tracer::get().spans();
  for (const auto& [layer, ms] : layer_self_ms(spans)) l["self_ms." + layer] = ms;
  // The server's own enqueue->response time against the client's
  // write->response time: the share of client latency the server accounts
  // for (the rest is framing and the reader hop).
  l["trace.reconcile_ratio"] = ratio(response_mean, mean(t.closed_ms));
  l["trace.overhead_ops_pct"] =
      100.0 * ratio(ops_per_s - percentile(t.round_ops_per_s, 0.50), ops_per_s);
  l["trace.overhead_p50_ms"] = traced_p50 - p50;
  l["trace.spans"] = static_cast<double>(spans.size());
  const std::string path = options.out_dir + "/storm-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (!Tracer::get().write_chrome(path))
    result.violation("cannot write trace file " + path);
  return result;
}

}  // namespace sfbench
