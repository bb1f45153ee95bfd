// sfbench: one workload of the end-to-end benchmark per invocation.
//
//   sfbench --workload storm|federate|churn --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--git-sha SHA] [--source-digest D]
//
// Prints a run header and one `name value unit` line per metric, then, as
// the last line, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.  Exits 1 when a check fails or an operation failed, 2 on
// bad usage.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace sfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sfbench: " << why
            << "\nusage: sfbench --workload storm|federate|churn --seed N"
               " --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]"
               " [--source-digest D]\n";
  std::exit(2);
}

/// Every digit of `v`; a non-finite value (a failed run) prints as 0.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void print_line(const Metric& m) {
  std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with glibc's per-thread arenas, which threads happened
  // to allocate first moved storm's peak RSS by 3 MiB from run to run.
  mallopt(M_ARENA_MAX, 1);
  Options options;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value), have_seed = true;
      else if (arg == "--seconds") options.seconds = std::stoi(value);
      else if (arg == "--trace") options.trace = std::stoi(value) != 0;
      else if (arg == "--out-dir") options.out_dir = value;
      else if (arg == "--git-sha") git_sha = value;
      else if (arg == "--source-digest") options.source_digest = value;
      else usage("unknown flag " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (options.seconds < 1 || options.seconds > 60)
    usage("--seconds must be within [1, 60]");
  std::signal(SIGPIPE, SIG_IGN);

  const CpuStat stat_before = read_cpu_stat();
  const Clock::time_point wall_start = Clock::now();
  const double cpu_start = process_cpu_s();

  Result result;
  try {
    if (options.workload == "storm") result = run_storm(options);
    else if (options.workload == "federate") result = run_federate(options);
    else if (options.workload == "churn") result = run_churn(options);
    else usage("unknown workload '" + options.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "sfbench: error: " << e.what() << "\n";
    return 1;
  }

  const CpuStat stat_after = read_cpu_stat();
  const double steal_pct =
      stat_after.total > stat_before.total
          ? 100.0 * static_cast<double>(stat_after.steal - stat_before.steal) /
                static_cast<double>(stat_after.total - stat_before.total)
          : 0.0;

  std::cout << "# sfbench workload " << options.workload << " seed "
            << options.seed << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << "\n"
            << "# git_sha " << git_sha << " source_digest "
            << options.source_digest << "\n";
  print_line({"run.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
              "count"});
  print_line({"run.wall_s", ms_between(wall_start, Clock::now()) / 1000.0, "s"});
  print_line({"run.cpu_s", process_cpu_s() - cpu_start, "s"});
  print_line({"run.peak_rss_mb", peak_rss_mb(), "MiB"});
  print_line({"run.steal_pct", steal_pct, "%"});
  print_line({"run.attempted", static_cast<double>(result.attempted), "count"});
  print_line({"run.failed", static_cast<double>(result.failed), "count"});
  for (const Metric& m : result.info) print_line(m);

  std::vector<Metric> reported;
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = result.layer.find(name);
      reported.push_back({name, it == result.layer.end() ? 0.0 : it->second, unit});
    }
  } else {
    reported = result.end_to_end;
  }
  for (const Metric& m : reported) {
    print_line(m);
    if (!std::isfinite(m.value))
      result.violation("metric " + m.name + " is not a finite number");
  }

  const bool correct = result.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << reported[i].name
              << "\": {\"value\": " << number(reported[i].value)
              << ", \"unit\": \"" << reported[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return correct && result.failed == 0 ? 0 : 1;
}
