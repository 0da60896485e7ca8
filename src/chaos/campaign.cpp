#include "chaos/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "sim/parallel/steal_pool.hpp"

namespace vdep::chaos {

namespace {

// splitmix64: decorrelates per-trial seeds derived from one campaign seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

TrialConfig campaign_trial_config(const CampaignConfig& config, int index) {
  TrialConfig trial = config.base;
  trial.seed = mix_seed(config.seed, static_cast<std::uint64_t>(index));
  const auto i = static_cast<std::size_t>(index);
  trial.style = config.styles[i % config.styles.size()];
  trial.replicas = config.replica_counts[(i / config.styles.size()) %
                                         config.replica_counts.size()];
  trial.checkpoint_every_requests =
      config.checkpoint_frequencies[(i / (config.styles.size() *
                                          config.replica_counts.size())) %
                                    config.checkpoint_frequencies.size()];
  trial.checkpoint_anchor_interval =
      config.anchor_intervals[(i / (config.styles.size() *
                                    config.replica_counts.size() *
                                    config.checkpoint_frequencies.size())) %
                              config.anchor_intervals.size()];
  trial.shards =
      config.shard_counts[(i / (config.styles.size() *
                                config.replica_counts.size() *
                                config.checkpoint_frequencies.size() *
                                config.anchor_intervals.size())) %
                          config.shard_counts.size()];
  return trial;
}

namespace {

// Everything one trial produces, computed without touching campaign state —
// the unit of work a fleet worker executes. The failing-trial span replay
// happens here too (it is deterministic per trial), so the expensive part of
// a campaign is embarrassingly parallel and the merge below is cheap.
struct ExecutedTrial {
  TrialConfig config;
  TrialResult result;
  std::string failure_recording;  // span replay, failing trials only
};

ExecutedTrial execute_campaign_trial(const CampaignConfig& config, int index) {
  ExecutedTrial out;
  out.config = campaign_trial_config(config, index);
  out.result = run_trial(out.config);
  if (!out.result.pass()) {
    // Post-mortem: replay the exact failing trial with span recording on.
    // Determinism guarantees the replay reproduces the failure, so the
    // flight recording shows the actual causal history behind the verdict.
    TrialConfig replay_config = out.config;
    replay_config.record_spans = true;
    out.failure_recording = run_trial(replay_config, out.result.plan).flight_recording;
  }
  return out;
}

// Folds one finished trial into the campaign aggregate. Must be called in
// trial-index order: the metrics registry, failure list and recovery series
// are order-sensitive, and index order is what makes the parallel fleet's
// output byte-identical to the serial run's.
void merge_trial(
    CampaignResult& result, int index, const ExecutedTrial& executed,
    const std::function<void(int, const TrialConfig&, const TrialResult&)>& on_trial) {
  const TrialConfig& trial_config = executed.config;
  const TrialResult& trial = executed.result;

  ++result.trials;
  result.metrics.add("chaos.trials");
  const std::string style = replication::style_code(trial_config.style);
  if (trial.pass()) {
    ++result.passed;
    result.metrics.add("chaos.pass");
    result.metrics.add("chaos.pass." + style);
  } else {
    result.metrics.add("chaos.fail");
    result.metrics.add("chaos.fail." + style);
    result.failures.push_back({index, trial_config, trial.plan,
                               trial.verdict.failures, executed.failure_recording});
  }
  if (trial_config.shards > 1) {
    result.metrics.add("chaos.shard.trials");
    result.metrics.observe(
        "chaos.shard.migrations",
        static_cast<double>(trial.shard_observation.migrations_committed));
    result.metrics.observe(
        "chaos.shard.final_epoch",
        static_cast<double>(trial.shard_observation.final_map.epoch()));
  }
  if (trial_config.health) {
    // Per-fault detection latency distribution: the campaign's p50/p99
    // detection figures read straight off this metric.
    for (const auto& rec : match_detections(trial.health_observation)) {
      if (rec.detected) {
        result.metrics.observe("chaos.detection_ms", rec.latency_ms);
      } else {
        result.metrics.add("chaos.detection_missed");
      }
    }
    result.metrics.add(
        "chaos.health_events",
        static_cast<std::uint64_t>(trial.health_observation.events.size()));
  }
  result.metrics.observe("chaos.recovery_ms", trial.recovery_ms);
  result.metrics.observe("chaos.completed_ops",
                         static_cast<double>(trial.completed_ops));
  if (trial_config.record_spans) {
    result.metrics.observe("chaos.spans_per_trial",
                           static_cast<double>(trial.spans_recorded));
    result.metrics.add("chaos.spans_dropped", trial.spans_dropped);
  }
  result.recovery_series.record(SimTime{index}, trial.recovery_ms);

  if (on_trial) on_trial(index, trial_config, trial);
}

}  // namespace

CampaignResult run_campaign(
    const CampaignConfig& config,
    const std::function<void(int, const TrialConfig&, const TrialResult&)>& on_trial) {
  CampaignResult result;
  const int workers = std::min(std::max(config.workers, 1), std::max(config.trials, 1));

  if (workers == 1) {
    for (int i = 0; i < config.trials; ++i) {
      merge_trial(result, i, execute_campaign_trial(config, i), on_trial);
    }
  } else {
    // Trial fleet: every trial is reproducible from (campaign seed, index)
    // with its own isolated Kernel, so trials run as independent pool tasks
    // writing pre-assigned slots. The driver commits finished slots in index
    // order — streaming, so memory is bounded by the fleet's out-of-order
    // window, and on_trial still observes the serial sequence.
    sim::parallel::StealPool pool(workers);
    const auto n = static_cast<std::size_t>(config.trials);
    std::vector<std::unique_ptr<ExecutedTrial>> slots(n);
    std::vector<std::unique_ptr<std::atomic<bool>>> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ready.push_back(std::make_unique<std::atomic<bool>>(false));
    }
    for (int i = 0; i < config.trials; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      pool.submit([&config, &slots, &ready, i, slot] {
        slots[slot] = std::make_unique<ExecutedTrial>(execute_campaign_trial(config, i));
        ready[slot]->store(true, std::memory_order_release);
      });
    }
    for (int i = 0; i < config.trials; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      while (!ready[slot]->load(std::memory_order_acquire)) {
        // Help run trials while waiting; once nothing is claimable the
        // remaining trials are mid-execution on workers — back off briefly.
        if (!pool.try_run_one()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      merge_trial(result, i, *slots[slot], on_trial);
      slots[slot].reset();
    }
  }

  result.metrics.set_gauge("chaos.pass_rate",
                           result.trials == 0
                               ? 1.0
                               : static_cast<double>(result.passed) / result.trials);
  return result;
}

std::string to_json(const CampaignConfig& config, const CampaignResult& result) {
  char buf[256];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf), "  \"seed\": %llu,\n",
                static_cast<unsigned long long>(config.seed));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"trials\": %d,\n", result.trials);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"passed\": %d,\n", result.passed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"failed\": %d,\n", result.trials - result.passed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"pass_rate\": %.4f,\n",
                result.metrics.gauge("chaos.pass_rate").value_or(0.0));
  out += buf;
  if (const auto* rec = result.metrics.distribution("chaos.recovery_ms")) {
    std::snprintf(buf, sizeof(buf),
                  "  \"recovery_ms\": {\"mean\": %.3f, \"stddev\": %.3f, "
                  "\"min\": %.3f, \"max\": %.3f},\n",
                  rec->mean(), rec->stddev(), rec->min(), rec->max());
    out += buf;
  }
  if (const auto* ops = result.metrics.distribution("chaos.completed_ops")) {
    std::snprintf(buf, sizeof(buf),
                  "  \"completed_ops\": {\"mean\": %.1f, \"total\": %.0f},\n",
                  ops->mean(), ops->sum());
    out += buf;
  }
  out += "  \"per_style\": {";
  bool first = true;
  for (auto style : config.styles) {
    const std::string code = replication::style_code(style);
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": {\"pass\": %llu, \"fail\": %llu}",
                  first ? "" : ",", code.c_str(),
                  static_cast<unsigned long long>(
                      result.metrics.counter("chaos.pass." + code)),
                  static_cast<unsigned long long>(
                      result.metrics.counter("chaos.fail." + code)));
    out += buf;
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace vdep::chaos
