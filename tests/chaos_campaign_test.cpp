// The acceptance campaign: 200 seeded trials sweeping {style x replicas x
// checkpoint frequency}; every oracle must hold on every trial. Labeled
// `chaos` in ctest — excluded from the tier1 quick gate, run by scripts/ci.sh
// and the full suite.
#include <gtest/gtest.h>

#include <string>

#include "chaos/campaign.hpp"

namespace vdep::chaos {
namespace {

TEST(ChaosCampaign, TwoHundredTrialsAllStylesAllOraclesHold) {
  CampaignConfig config;
  config.seed = 1;
  config.trials = 200;
  // Fleet execution (workers is a pure throughput knob — byte-identical
  // results; pinned by parallel_campaign_chaos_test on this exact config).
  config.workers = 8;

  const CampaignResult result = run_campaign(config);

  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "trial " << failure.trial_index << " (style "
                  << replication::style_code(failure.config.style) << ", "
                  << failure.config.replicas << " replicas, seed "
                  << failure.config.seed << "):\n  "
                  << [&] {
                       std::string all;
                       for (const auto& f : failure.failures) all += f + "\n  ";
                       return all;
                     }()
                  << "schedule:\n"
                  << failure.plan.to_string();
  }
  EXPECT_EQ(result.passed, 200);
  EXPECT_TRUE(result.all_passed());

  // Sweep coverage: all five styles, both replica counts, both checkpoint
  // frequencies appear — and the metrics agree with the verdict tally.
  for (const char* code : {"A", "P", "C", "S", "H"}) {
    EXPECT_GE(result.metrics.counter(std::string("chaos.pass.") + code), 20u) << code;
  }
  EXPECT_EQ(result.metrics.counter("chaos.pass"), 200u);
  EXPECT_EQ(result.metrics.counter("chaos.fail"), 0u);
  EXPECT_DOUBLE_EQ(result.metrics.gauge("chaos.pass_rate").value_or(0.0), 1.0);
  const auto* recovery = result.metrics.distribution("chaos.recovery_ms");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->count(), 200u);
}

// The fleet campaigns that once caught warm passive installing a dead
// primary's late checkpoint (seed 2004 trial 91, seed 2005 trial 326):
// classic and 4-shard trials with the health plane on.
TEST(ChaosCampaign, FleetSeeds2004And2005AllOraclesHold) {
  for (std::uint64_t seed : {2004, 2005}) {
    CampaignConfig config;
    config.seed = seed;
    config.trials = 400;
    config.shard_counts = {1, 4};
    config.base.health = true;
    config.workers = 4;
    const CampaignResult result = run_campaign(config);
    for (const auto& failure : result.failures) {
      std::string all;
      for (const auto& f : failure.failures) all += f + "\n  ";
      ADD_FAILURE() << "seed " << seed << " trial " << failure.trial_index << ":\n  " << all
                    << "schedule:\n"
                    << failure.plan.to_string();
    }
    EXPECT_EQ(result.passed, 400) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vdep::chaos
