// Host-clock probes: each times one public hot function, on inputs shaped
// like (or captured from) the end state of a finished run. Multiplying a
// probe's cost by the run's call count attributes host time to a module
// without instrumenting the program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "replication/replicator.hpp"

namespace perfbench {

// Median nanoseconds per call of `fn`, over a few batches of at least
// `batch_seconds` each.
template <class Fn>
double ns_per_call(Fn&& fn, double batch_seconds = 0.002, int batches = 5) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    std::chrono::duration<double> elapsed{};
    do {
      fn();
      ++calls;
      elapsed = Clock::now() - start;
    } while (elapsed.count() < batch_seconds);
    per_call.push_back(elapsed.count() * 1e9 / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// sim::Kernel schedule + pop + dispatch, per event (self-reposting storm).
[[nodiscard]] double kernel_ns_per_event();

// gcs::Ordered frame encode_inner + decode_inner with a payload of
// `payload_bytes`.
[[nodiscard]] double gcs_codec_ns(std::size_t payload_bytes);

// GIOP request encode + decode plus reply encode + decode (one round trip
// through the ORB's codec), with an FT_REQUEST service context.
[[nodiscard]] double giop_round_trip_ns(std::size_t request_bytes, std::size_t reply_bytes);

// The checkpoint path of a live replica, on its current state.
struct CheckpointProbe {
  double serialize_recent_ns = 0.0;  // ReplyCache::serialize_recent(K)
  double encode_ns = 0.0;            // CheckpointMsg::encode of a full anchor
  double decode_ns = 0.0;            // CheckpointMsg::decode of the same
  double snapshot_ns = 0.0;          // Checkpointable::snapshot()
};
[[nodiscard]] CheckpointProbe probe_checkpoint(vdep::replication::Replicator& replica);

}  // namespace perfbench
