// Incremental checkpointing end to end: anchored delta chains on a live
// warm-passive group, the bandwidth they save, the gap-recovery protocol,
// reply-cache retention under deltas, and crashes timed into the delta
// broadcast windows. Complements the codec/unit tests in
// replication_units_test.cpp and the app-level tests in app_kv_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/kv_store.hpp"
#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace vdep::harness {
namespace {

using app::KvStoreServant;
using replication::ReplicationStyle;

// --- delta cadence on the default micro-benchmark servant --------------------

TEST(DeltaCheckpoints, WarmPassiveCutsDeltasBetweenAnchors) {
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = 4;
  Scenario scenario(config);

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 250;
  cycle.warmup_requests = 20;
  const ExperimentResult result = scenario.run_closed_loop(cycle);
  EXPECT_EQ(result.completed, 540u);

  // With K = 4 the chain runs F D D D F D D D ... — deltas dominate.
  auto& primary = scenario.replicator(0);
  EXPECT_GT(primary.checkpoints_full_taken(), 0u);
  EXPECT_GT(primary.checkpoints_delta_taken(), primary.checkpoints_full_taken());

  // Backups installed both kinds, in chain order, without ever needing an
  // anchor re-request on the healthy path.
  for (int i = 1; i < 3; ++i) {
    EXPECT_GT(scenario.replicator(i).installs_full(), 0u) << "replica " << i;
    EXPECT_GT(scenario.replicator(i).installs_delta(), 0u) << "replica " << i;
    EXPECT_EQ(scenario.replicator(i).anchor_requests_sent(), 0u) << "replica " << i;
  }

  // One more (delta) cut brings every backup to the primary's exact state.
  primary.take_checkpoint();
  scenario.drain();
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(DeltaCheckpoints, AnchorIntervalOneNeverCutsADelta) {
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = 1;  // the seed protocol
  Scenario scenario(config);

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 250;
  cycle.warmup_requests = 20;
  (void)scenario.run_closed_loop(cycle);

  EXPECT_GT(scenario.replicator(0).checkpoints_full_taken(), 0u);
  EXPECT_EQ(scenario.replicator(0).checkpoints_delta_taken(), 0u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(scenario.replicator(i).installs_delta(), 0u) << "replica " << i;
  }
}

// --- checkpoint bandwidth on a sparse-write KV workload -----------------------

// Builds a 2-replica warm-passive KV group, seeds `keys` entries, anchors,
// then runs `rounds` single-key writes with one checkpoint cut per write.
// Returns the primary's total checkpoint bytes; asserts the backup converged.
std::uint64_t sparse_write_checkpoint_bytes(std::uint32_t anchor_interval,
                                            int keys, int rounds) {
  ScenarioConfig config;
  config.clients = 1;
  config.replicas = 2;
  config.max_replicas = 2;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = anchor_interval;
  // Checkpoints are driven manually below; push the periodic cadence out of
  // the simulated horizon so the cut schedule is identical across runs.
  config.checkpoint_interval = sec(600);
  config.checkpoint_every_requests = 1000000;
  config.make_servant = [](int) { return std::make_unique<KvStoreServant>(); };
  Scenario scenario(config);
  scenario.kernel().run_until(msec(300));  // group forms

  // Checkpoint content is application state, so seeding the primary servant
  // directly keeps the test free of client plumbing; the backup catches up
  // purely through the checkpoint stream.
  auto& primary_kv = dynamic_cast<KvStoreServant&>(scenario.app(0));
  for (int i = 0; i < keys; ++i) {
    (void)primary_kv.invoke("put",
                            KvStoreServant::encode_put("key" + std::to_string(i),
                                                       std::string(64, 'v')));
  }
  scenario.replicator(0).take_checkpoint(/*force_full=*/true);
  scenario.drain();

  for (int round = 0; round < rounds; ++round) {
    (void)primary_kv.invoke(
        "put", KvStoreServant::encode_put("key" + std::to_string(round % 3),
                                          "round" + std::to_string(round)));
    scenario.replicator(0).take_checkpoint();
    scenario.drain();
  }

  EXPECT_EQ(scenario.app(1).state_digest(), primary_kv.state_digest())
      << "anchor_interval " << anchor_interval;
  return scenario.replicator(0).checkpoint_bytes_sent();
}

TEST(DeltaCheckpoints, SparseWritesCutCheckpointBytesAtLeastFivefold) {
  // ~1% of 256 keys dirty per cut: the ISSUE's headline ratio, measured on
  // the live wire (encoded CheckpointMsg bytes, not raw app deltas).
  const std::uint64_t full_every_time = sparse_write_checkpoint_bytes(1, 256, 12);
  const std::uint64_t anchored_chain = sparse_write_checkpoint_bytes(16, 256, 12);
  EXPECT_GT(full_every_time, anchored_chain * 5)
      << "full=" << full_every_time << " delta-chain=" << anchored_chain;
}

// --- property: random ops + random cut boundaries == monolithic restore -------

TEST(DeltaCheckpoints, RandomChainReplayMatchesMonolithicSnapshot) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    ScenarioConfig config;
    config.clients = 1;
    config.replicas = 2;
    config.max_replicas = 2;
    config.style = ReplicationStyle::kWarmPassive;
    config.checkpoint_anchor_interval =
        static_cast<std::uint32_t>(rng.range(2, 6));
    config.checkpoint_interval = sec(600);
    config.checkpoint_every_requests = 1000000;
    config.make_servant = [](int) { return std::make_unique<KvStoreServant>(); };
    Scenario scenario(config);
    scenario.kernel().run_until(msec(300));

    auto& primary_kv = dynamic_cast<KvStoreServant&>(scenario.app(0));
    const int cuts = static_cast<int>(rng.range(4, 10));
    for (int cut = 0; cut < cuts; ++cut) {
      const int ops = static_cast<int>(rng.range(0, 12));
      for (int op = 0; op < ops; ++op) {
        const std::string key = "k" + std::to_string(rng.range(0, 15));
        switch (rng.range(0, 2)) {
          case 0:
            (void)primary_kv.invoke(
                "put", KvStoreServant::encode_put(key, std::to_string(rng.next() % 1000)));
            break;
          case 1:
            (void)primary_kv.invoke("append",
                                    KvStoreServant::encode_append(key, "+"));
            break;
          default:
            (void)primary_kv.invoke("erase", KvStoreServant::encode_key(key));
        }
      }
      // Random full/delta boundary: occasionally force an anchor mid-chain.
      scenario.replicator(0).take_checkpoint(/*force_full=*/rng.chance(0.25));
      scenario.drain();
    }

    // The backup assembled its state purely from the anchor + delta chain;
    // a monolithic snapshot/restore of the primary must land on the same
    // digest, byte for byte.
    KvStoreServant monolithic;
    monolithic.restore(primary_kv.snapshot());
    EXPECT_EQ(scenario.app(1).state_digest(), monolithic.state_digest())
        << "seed " << seed;
    EXPECT_EQ(scenario.replicator(1).anchor_requests_sent(), 0u) << "seed " << seed;
  }
}

// --- failover and retention under delta chains --------------------------------

TEST(DeltaCheckpoints, PromotedBackupStaysExactlyOnceUnderDeltas) {
  // The reply cache travels in every checkpoint — full or delta — so a
  // promoted warm backup must still dedup the in-flight retransmission.
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = 4;
  Scenario scenario(config);
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 700;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const ExperimentResult result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 1440u);
  EXPECT_EQ(scenario.group().live_count(), 2);
  // Exactly-once at the application despite failover mid-chain.
  EXPECT_EQ(scenario.servant(1).counter(), 1440u);
  // The restored cache stays bounded by the per-checkpoint retention window.
  EXPECT_LE(scenario.replicator(1).reply_cache().size(), std::size_t{4096});
  EXPECT_GT(scenario.replicator(1).reply_cache().size(), 0u);
}

TEST(DeltaCheckpoints, RecoveredReplicaRejoinsThroughDeltaStateTransfer) {
  ScenarioConfig config;
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = ReplicationStyle::kWarmPassive;
  config.checkpoint_anchor_interval = 4;
  config.auto_recover = true;
  Scenario scenario(config);
  // A backup dies mid-chain and comes back: the rejoin donation must bundle
  // the anchor plus the delta suffix, never a bare delta.
  scenario.fault_plan().crash_process(msec(500), scenario.replica_pid(2));
  scenario.fault_plan().restart_process(msec(900), scenario.replica_pid(2));

  Scenario::CycleConfig cycle;
  cycle.requests_per_client = 400;
  cycle.warmup_requests = 20;
  cycle.max_duration = sec(120);
  const ExperimentResult result = scenario.run_closed_loop(cycle);

  EXPECT_EQ(result.completed, 840u);
  EXPECT_EQ(scenario.group().live_count(), 3);
  EXPECT_TRUE(scenario.replicator(2).initialized());
  // The rejoiner got at least one full install (the donated anchor)…
  EXPECT_GE(scenario.replicator(2).installs_full(), 1u);

  // …and converges with the primary once one more cut lands.
  scenario.replicator(0).take_checkpoint();
  scenario.drain();
  const auto digests = scenario.live_state_digests();
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

}  // namespace
}  // namespace vdep::harness

// --- chaos matrix: crashes timed into the delta chain -------------------------

namespace vdep::chaos {
namespace {

// Sweeps the crash instant across a window that covers several checkpoint
// rounds (every 10 requests ≈ every ~60 ms here), so some trials kill the
// primary mid-delta-broadcast and others between an anchor and its dependent
// delta. The invariant oracles judge each run: no wedge, no stale promote,
// exactly-once, all clients finish. Deterministic from (seed, crash time).
TEST(ChaosDeltaMatrix, PrimaryCrashSweptAcrossDeltaBroadcastWindows) {
  for (int step = 0; step < 8; ++step) {
    TrialConfig config;
    config.seed = 41 + static_cast<std::uint64_t>(step);
    config.style = replication::ReplicationStyle::kWarmPassive;
    config.clients = 2;
    config.replicas = 3;
    config.checkpoint_every_requests = 10;
    config.checkpoint_anchor_interval = 4;

    net::FaultPlan plan;
    const SimTime crash_at = msec(500) + msec(37) * step;
    // Replica pids are deterministic per scenario layout; pid of replica 0
    // is the same across trials of identical shape, so build a throwaway
    // scenario to read it.
    {
      harness::ScenarioConfig sc;
      sc.replicas = config.replicas;
      sc.max_replicas = config.replicas;
      harness::Scenario scenario(sc);
      plan.crash_process(crash_at, scenario.replica_pid(0));
    }

    const TrialResult result = run_trial(config, plan);
    EXPECT_TRUE(result.pass())
        << "crash at step " << step << ":\n"
        << [&] {
             std::string all;
             for (const auto& f : result.verdict.failures) all += f + "\n";
             return all;
           }();
    EXPECT_GT(result.completed_ops, 0u);
  }
}

// Same sweep with the anchor cadence stretched (K = 8) and the crash window
// pushed right after checkpoint rounds begin: long delta chains make the
// anchor → dependent-delta gap wide, so a promote in that gap exercises the
// anchor re-request path instead of wedging on an uninstallable delta.
TEST(ChaosDeltaMatrix, CrashBetweenAnchorAndDependentDeltaRecovers) {
  for (int step = 0; step < 6; ++step) {
    TrialConfig config;
    config.seed = 97 + static_cast<std::uint64_t>(step);
    config.style = replication::ReplicationStyle::kWarmPassive;
    config.clients = 2;
    config.replicas = 3;
    config.checkpoint_every_requests = 10;
    config.checkpoint_anchor_interval = 8;

    net::FaultPlan plan;
    const SimTime crash_at = msec(620) + msec(53) * step;
    {
      harness::ScenarioConfig sc;
      sc.replicas = config.replicas;
      sc.max_replicas = config.replicas;
      harness::Scenario scenario(sc);
      plan.crash_process(crash_at, scenario.replica_pid(0));
    }

    const TrialResult result = run_trial(config, plan);
    EXPECT_TRUE(result.pass())
        << "crash at step " << step << ":\n"
        << [&] {
             std::string all;
             for (const auto& f : result.verdict.failures) all += f + "\n";
             return all;
           }();
  }
}

}  // namespace
}  // namespace vdep::chaos
