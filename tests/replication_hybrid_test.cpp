// The hybrid replication style (active core + warm observers), the paper's
// Sec. 6 extension: correctness, failover tiers, and its position in the
// trade-off space between active and warm passive.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

using replication::ReplicationStyle;

Scenario make_hybrid(int replicas, int clients, std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.seed = seed;
  config.clients = clients;
  config.replicas = replicas;
  config.max_replicas = replicas;
  config.style = ReplicationStyle::kHybrid;
  return Scenario(config);
}

TEST(Hybrid, CoreExecutesObserversLag) {
  Scenario scenario = make_hybrid(3, 2);
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 300;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 640u);
  // Core (ranks 0 and 1) executed everything, exactly once.
  EXPECT_EQ(scenario.servant(0).counter(), 640u);
  EXPECT_EQ(scenario.servant(1).counter(), 640u);
  // The observer rides checkpoints: applied but lagging, log bounded.
  EXPECT_GT(scenario.servant(2).counter(), 300u);
  EXPECT_LT(scenario.replicator(2).message_log().size(), 400u);
  EXPECT_TRUE(scenario.replicator(0).is_responder());
  EXPECT_TRUE(scenario.replicator(1).is_responder());
  EXPECT_FALSE(scenario.replicator(2).is_responder());
}

TEST(Hybrid, CoreCrashAbsorbedInstantly) {
  Scenario scenario = make_hybrid(3, 1);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 620u);
  // Replica 1 was already executing: no retransmissions, exactly-once.
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(scenario.servant(1).counter(), 620u);
  // The observer ascended into the core and caught up via replay.
  EXPECT_TRUE(scenario.replicator(2).is_responder());
}

TEST(Hybrid, DoubleCrashPromotesObserverWithReplay) {
  Scenario scenario = make_hybrid(3, 1);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  scenario.fault_plan().crash_process(msec(1500), scenario.replica_pid(1));
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(240);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 820u);
  EXPECT_EQ(scenario.group().live_count(), 1);
  // The former observer finished the cycle exactly-once despite replaying.
  EXPECT_EQ(scenario.servant(2).counter(), 820u);
}

TEST(Hybrid, TradeoffBetweenActiveAndPassive) {
  auto run = [](ReplicationStyle style) {
    ScenarioConfig config;
    config.clients = 2;
    config.replicas = 3;
    config.max_replicas = 3;
    config.style = style;
    Scenario scenario(config);
    Scenario::CycleConfig cycle;
    cycle.requests_per_client = 400;
    cycle.warmup_requests = 40;
    return scenario.run_closed_loop(cycle);
  };
  const auto active = run(ReplicationStyle::kActive);
  const auto hybrid = run(ReplicationStyle::kHybrid);
  const auto passive = run(ReplicationStyle::kWarmPassive);

  const auto bytes_per_req = [](const ExperimentResult& r) {
    return r.bandwidth_mbps * 1e6 / r.throughput_rps;
  };
  // Hybrid's wire cost per request sits between active (3 executes+replies)
  // and a shape closer to passive; latency stays near active's.
  EXPECT_LT(bytes_per_req(hybrid), bytes_per_req(active));
  EXPECT_LT(hybrid.avg_latency_us, passive.avg_latency_us * 0.8);
}

TEST(Hybrid, RuntimeSwitchInAndOut) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.kernel().post_at(msec(600), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kHybrid);
  });
  scenario.kernel().post_at(msec(1400), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kActive);
  });
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 900;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 920u);
  EXPECT_EQ(scenario.replicator(0).style(), ReplicationStyle::kActive);
  // WP -> H synchronized rank 1 into the core via the final checkpoint, and
  // H -> A synchronized the observer; everyone is current and consistent.
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
  EXPECT_EQ(scenario.servant(0).counter(), 920u);
}

TEST(Hybrid, ColdToActiveSwitchInstallsStoredCheckpoint) {
  // Cold observers retain checkpoints without applying them; leaving the
  // cold style must install before executing, or states diverge.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kColdPassive;
  Scenario scenario(config);
  scenario.kernel().post_at(sec(1), [&] {
    scenario.replicator(0).request_style_switch(ReplicationStyle::kActive);
  });
  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 700;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  scenario.drain();

  EXPECT_EQ(result.completed, 720u);
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

}  // namespace
}  // namespace vdep::harness
