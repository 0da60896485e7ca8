// Failure injection: crash the responder (and others) mid-cycle under every
// style and verify the paper's recovery stories — active continues
// seamlessly, warm passive replays its log, cold passive launches a dormant
// backup — with exactly-once application semantics throughout.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/scenario.hpp"

namespace vdep::harness {
namespace {

using replication::ReplicationStyle;

struct FailoverCase {
  ReplicationStyle style;
  // Padding spelled out and zero-filled: gtest prints a parameter that has
  // no PrintTo as its raw bytes, and that dump is part of the test's listed
  // name, so implicit (uninitialised) padding made the name vary run to run.
  std::uint8_t padding[7];
  const char* name;
};
static_assert(sizeof(FailoverCase) == 16);

class FailoverTest : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(FailoverTest, PrimaryCrashMidCycleStillCompletesExactlyOnce) {
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = GetParam().style;
  Scenario scenario(config);

  // Crash the initial responder (lowest-rank replica) mid-run.
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 700;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const ExperimentResult result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 1440u);
  EXPECT_EQ(scenario.group().live_count(), 2);
  EXPECT_EQ(result.faults_tolerated, 1);

  // Exactly-once despite the failover: the surviving responder's counter is
  // exactly the number of unique requests (replay skipped nothing and
  // double-applied nothing — the reply cache travels in checkpoints).
  EXPECT_EQ(scenario.servant(1).counter(), 1440u)
      << "style " << GetParam().name;

  if (GetParam().style == ReplicationStyle::kActive ||
      GetParam().style == ReplicationStyle::kSemiActive) {
    // Both survivors executed everything and agree.
    EXPECT_EQ(scenario.servant(2).counter(), 1440u);
    scenario.drain();
  auto digests = scenario.live_state_digests();
    ASSERT_EQ(digests.size(), 2u);
    EXPECT_EQ(digests[0], digests[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStyles, FailoverTest,
    ::testing::Values(FailoverCase{ReplicationStyle::kActive, {}, "active"},
                      FailoverCase{ReplicationStyle::kSemiActive, {}, "semi_active"},
                      FailoverCase{ReplicationStyle::kWarmPassive, {}, "warm_passive"},
                      FailoverCase{ReplicationStyle::kColdPassive, {}, "cold_passive"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Failover, ActiveAbsorbsCrashWithoutRetransmissions) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 820u);
  // Other replicas were already replying: the client never had to retry.
  EXPECT_EQ(result.retransmissions, 0u);
}

TEST(Failover, WarmPassiveRecoveryGapVisibleButBounded) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 620u);
  // The request in flight at the crash needed a retransmission after the
  // backup promoted; its latency is the client-visible recovery gap.
  EXPECT_GE(result.max_latency_us, 10000.0);
  EXPECT_LT(result.max_latency_us, 2e6);
}

TEST(Failover, ColdPassivePaysLaunchDelay) {
  ScenarioConfig warm_config;
  warm_config.clients = 1;
  warm_config.replicas = 2;
  warm_config.max_replicas = 2;
  warm_config.style = ReplicationStyle::kWarmPassive;
  Scenario warm(warm_config);
  warm.fault_plan().crash_process(sec(1), warm.replica_pid(0));

  ScenarioConfig cold_config = warm_config;
  cold_config.style = ReplicationStyle::kColdPassive;
  Scenario cold(cold_config);
  cold.fault_plan().crash_process(sec(1), cold.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 500;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto rw = warm.run_closed_loop(cycle);
  const auto rc = cold.run_closed_loop(cycle);
  EXPECT_EQ(rw.completed, 520u);
  EXPECT_EQ(rc.completed, 520u);
  // Cold recovery adds the launch delay on top of warm's replay.
  EXPECT_GT(rc.max_latency_us, rw.max_latency_us + 0.5 * to_usec(msec(800)));
}

TEST(Failover, NodeCrashDetectedByHeartbeats) {
  // Killing the whole machine (daemon included) exercises the slow,
  // heartbeat-timeout detection path instead of local crash reporting.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.fault_plan().crash_node(sec(1), scenario.replica_host(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 620u);
  EXPECT_EQ(scenario.servant(1).counter(), 620u);
  // Detection took at least the heartbeat timeout.
  EXPECT_GE(result.max_latency_us,
            to_usec(calib::kDefaultHeartbeatInterval * calib::kDefaultHeartbeatMisses));
}

TEST(Failover, TwoSequentialCrashesWithThreeReplicas) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));
  scenario.fault_plan().crash_process(sec(2), scenario.replica_pid(1));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 1200;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(240);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 1220u);
  EXPECT_EQ(scenario.group().live_count(), 1);
  EXPECT_EQ(scenario.servant(2).counter(), 1220u);
}

TEST(Failover, ReplicaGrowthWithStateTransfer) {
  // The NumReplicas knob: grow 1 -> 3 mid-run; joiners converge via the
  // checkpoint state transfer and the group then tolerates their crashes.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 1;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);

  scenario.kernel().post_at(sec(1), [&] { scenario.group().set_replica_count(3); });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 820u);
  EXPECT_EQ(scenario.group().live_count(), 3);

  scenario.drain();
  auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(Failover, ReplicaShrinkGraceful) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);
  scenario.kernel().post_at(sec(1), [&] { scenario.group().set_replica_count(1); });

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 600;
  cycle.warmup_requests = 20;
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 620u);
  EXPECT_EQ(scenario.group().live_count(), 1);
  EXPECT_EQ(result.retransmissions, 0u);  // graceful leave loses nothing
}

TEST(Failover, PerformanceFaultDegradesButDoesNotBreak) {
  // Paper fault model: performance/timing faults. The primary's machine
  // runs 5x slower for a second; latency spikes, nothing is lost, and no
  // false failover occurs (heartbeats are CPU-load immune).
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kWarmPassive;
  Scenario scenario(config);
  scenario.fault_plan().slow_host(sec(1), sec(2), scenario.replica_host(0), 5.0);

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 820u);
  EXPECT_EQ(scenario.group().live_count(), 2);  // nobody got expelled
  EXPECT_GT(result.max_latency_us, 8000.0);     // the fault was visible
  EXPECT_EQ(scenario.servant(0).counter(), 820u);
}

TEST(Failover, TransientLossBurstSurvived) {
  // The paper's "transient communication faults": a lossy window between the
  // client's host and the primary's host.
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kActive;
  Scenario scenario(config);
  scenario.fault_plan().loss_burst(sec(1), sec(2), NodeId{0}, scenario.replica_host(0),
                                   0.4);

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 800;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const auto result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 820u);
  scenario.drain();
  auto digests = scenario.live_state_digests();
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace vdep::harness
