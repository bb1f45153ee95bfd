// The three workloads (README.md has their make-up and the reasons for each).
#pragma once

#include "common.hpp"

namespace sfbench {

Result run_storm(const Options& options);
Result run_federate(const Options& options);
Result run_churn(const Options& options);

}  // namespace sfbench
