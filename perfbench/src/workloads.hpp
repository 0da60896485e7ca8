// The four benchmark workloads, driven through the public APIs only
// (harness::Scenario, shard::ShardedCluster, chaos::run_campaign).
//
// A run repeats *passes* of one workload until its time budget is spent.
// Every pass rebuilds the testbed from the same seed, so every sim-clock
// result must repeat exactly from pass to pass (the determinism witness);
// host-clock results are medians over the passes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // per-layer attribution run instead of end-to-end
  bool smoke = false;  // tiny sizes: checks the metric table, not speed
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Metric names in the order the one-line result lists them.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

// Runs `name` (one of workload_names()); throws std::invalid_argument for an
// unknown name.
[[nodiscard]] Result run_workload(std::string_view name, const RunOptions& options);

}  // namespace perfbench
