// Result model and rendering for the end-to-end benchmark: named metrics
// with a unit and the clock they are measured on, the human-readable table,
// the one-line JSON result, the host/build stamp and the determinism digest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

// Which clock a metric is measured on. kHost numbers are wall-clock speed of
// the simulator and vary run to run; kSim numbers are properties of the
// modelled replicated service and repeat exactly for a fixed seed; kNone is
// a ratio of model counts (also repeatable).
enum class Clock { kHost, kSim, kNone };

struct Metric {
  std::string name;
  std::string unit;
  Clock clock = Clock::kNone;
  double value = 0.0;
  // Everything not measured on the host clock repeats for a fixed seed and
  // is folded into the determinism digest.
  [[nodiscard]] bool deterministic() const { return clock != Clock::kHost; }
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  std::vector<std::string> notes;     // extra table lines (span breakdown)
  std::uint64_t digest = 0;           // over every deterministic metric

  void add(std::string name, std::string unit, Clock clock, double value);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

// FNV-1a, folded over the exact bit patterns of the deterministic metrics.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len);
[[nodiscard]] std::uint64_t digest_of(const std::vector<Metric>& metrics);

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample set;
// 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

// Median of a LogHistogram, interpolated by rank inside its bucket.
// LogHistogram::percentile returns the bucket's lower bound, which moves only
// in 1/16-octave steps and would read the same for most seeds.
[[nodiscard]] double histogram_median(const vdep::LogHistogram& hist);

// Host and build stamp, printed with every result.
struct Stamp {
  unsigned cpus = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool release = false;  // compiled with NDEBUG
};
[[nodiscard]] Stamp host_stamp();

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::string_view clock_name(Clock clock);

// Human-readable block: stamp, one line per metric, checks, digest.
[[nodiscard]] std::string render_table(const Result& result, const Stamp& stamp);

// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// restricted to `names` (in that order).
[[nodiscard]] std::string render_json(const Result& result,
                                      const std::vector<std::string>& names);

}  // namespace perfbench
