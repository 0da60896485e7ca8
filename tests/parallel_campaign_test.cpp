// Serial-vs-parallel campaign determinism.
//
// The trial fleet's contract is that workers is a pure throughput knob: for
// the same campaign seed, the summary JSON, the on_trial callback sequence,
// the per-trial flight recordings, and the health event streams are all
// byte-identical whether the trials ran on 1, 2, or 8 workers. These tests
// pin that contract property-style; the wide variant in
// parallel_campaign_chaos_test.cpp repeats it at the full 200-trial
// acceptance width (ctest label `chaos`).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "monitor/health/events.hpp"
#include "util/bytes.hpp"

namespace vdep::chaos {
namespace {

// Everything a campaign run exposes, flattened to one comparable string:
// the summary JSON plus, per trial (in index order), the sweep position,
// verdict, flight-recording digest and rendered health event stream. Spans
// are recorded on every trial, so the digest is never that of an empty
// recording.
std::string campaign_witness(CampaignConfig config, int workers) {
  config.workers = workers;
  config.base.record_spans = true;
  std::string witness;
  const CampaignResult result = run_campaign(
      config, [&witness](int index, const TrialConfig& trial, const TrialResult& r) {
        EXPECT_FALSE(r.flight_recording.empty()) << "trial " << index;
        const auto& rec = r.flight_recording;
        witness += "trial " + std::to_string(index) + " " +
                   replication::style_code(trial.style) +
                   " r" + std::to_string(trial.replicas) +
                   " cp" + std::to_string(trial.checkpoint_every_requests) +
                   " seed" + std::to_string(trial.seed) +
                   (r.pass() ? " PASS" : " FAIL") +
                   " digest=" +
                   std::to_string(fnv1a({reinterpret_cast<const std::uint8_t*>(rec.data()),
                                         rec.size()})) +
                   " ops=" + std::to_string(r.completed_ops) + "\n";
        if (r.health_observation.enabled) {
          witness += "health_events=" +
                     std::to_string(r.health_observation.events.size()) + "\n" +
                     monitor::health::render_text(r.health_observation.events);
        }
      });
  witness += to_json(config, result);
  return witness;
}

TEST(ParallelCampaign, ByteIdenticalAcrossWorkerCounts) {
  CampaignConfig config;
  config.seed = 7;
  config.trials = 24;
  config.base.clients = 2;
  config.base.ops_per_client = 40;

  const std::string serial = campaign_witness(config, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(campaign_witness(config, 2), serial);
  EXPECT_EQ(campaign_witness(config, 8), serial);
}

TEST(ParallelCampaign, HealthPlaneByteIdenticalAcrossWorkerCounts) {
  // Health-enabled trials additionally stream HealthEvents (suspicion, SLO);
  // the parallel fleet must reproduce those streams exactly, per trial.
  CampaignConfig config;
  config.seed = 11;
  config.trials = 16;
  config.base.clients = 2;
  config.base.ops_per_client = 40;
  config.base.health = true;

  const std::string serial = campaign_witness(config, 1);
  ASSERT_NE(serial.find("health_events="), std::string::npos);
  EXPECT_EQ(campaign_witness(config, 2), serial);
  EXPECT_EQ(campaign_witness(config, 8), serial);
}

TEST(ParallelCampaign, ShardedTrialsByteIdenticalAcrossWorkerCounts) {
  CampaignConfig config;
  config.seed = 3;
  config.trials = 12;
  config.base.clients = 2;
  config.base.ops_per_client = 30;
  config.shard_counts = {1, 2};

  const std::string serial = campaign_witness(config, 1);
  EXPECT_EQ(campaign_witness(config, 2), serial);
  EXPECT_EQ(campaign_witness(config, 8), serial);
}

TEST(ParallelCampaign, OnTrialObservesIndexOrder) {
  CampaignConfig config;
  config.seed = 5;
  config.trials = 20;
  config.base.clients = 2;
  config.base.ops_per_client = 30;
  config.workers = 8;

  std::vector<int> order;
  (void)run_campaign(config, [&order](int index, const TrialConfig&,
                                      const TrialResult&) { order.push_back(index); });
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace vdep::chaos
