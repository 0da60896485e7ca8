// Sim-clock attribution from outside the program: reads a finished run's span
// table (the kernel tracer's, or a chaos trial's Chrome-trace flight
// recording) and charges each span's *self time* — its duration minus the
// part of its own interval that its children cover — to the module that
// recorded it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"

namespace perfbench {

// The fields attribution needs, in nanoseconds of simulated time.
struct SpanRow {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

[[nodiscard]] std::vector<SpanRow> rows_from_tracer(const vdep::obs::Tracer& tracer);

// Parses the "X" events of obs::to_chrome_trace output (microsecond
// timestamps with three decimals, exact to the nanosecond).
[[nodiscard]] std::vector<SpanRow> rows_from_chrome_trace(std::string_view json);

// Self time of every row, in row order. Children are clipped to the
// parent's interval (an async child may outlive its parent) and overlapping
// children are merged, so covered time is counted once.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<SpanRow>& rows);

// Per-span-name totals over a span table.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::int64_t duration_ns = 0;
};
using SpanSummary = std::map<std::string, NameTotals, std::less<>>;

void accumulate(SpanSummary& summary, const std::vector<SpanRow>& rows);

// Module of a span name ("gcs", "orb", "replication", "checkpoint", "shard",
// "adaptive", "client"), or "" for a name no module claims.
[[nodiscard]] std::string_view layer_of(std::string_view span_name);

// Sum of self time over the span names of one module, in nanoseconds.
[[nodiscard]] std::int64_t layer_self_ns(const SpanSummary& summary, std::string_view layer);
[[nodiscard]] std::uint64_t span_count(const SpanSummary& summary, std::string_view name);

}  // namespace perfbench
