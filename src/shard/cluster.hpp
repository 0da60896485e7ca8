// ShardedCluster — a multi-group deployment on a harness::Testbed: a
// replicated shard directory, one replica group per shard (each with its own
// style / replica count / checkpoint profile from the shard policy), routed
// clients, and a migration controller. The multi-shard analogue of
// harness::Scenario, built for the scale-out experiments: replica groups are
// co-located round-robin on a bounded set of server hosts, so 32 shards do
// not need 64 machines (the daemon mesh cost grows with hosts, not groups).
//
// Every group, directory and shards alike, is a harness::ReplicaGroup: the
// same replica stack harness::Scenario runs. controller(group) hands one out
// to the knob layer, so each shard's policy is tuned independently.
#pragma once

#include <memory>

#include "harness/testbed.hpp"
#include "replication/replicator.hpp"
#include "shard/migration.hpp"
#include "shard/router.hpp"
#include "util/stats.hpp"

namespace vdep::shard {

struct ShardedClusterConfig {
  std::uint64_t seed = 1;
  int shards = 4;
  ShardPolicy default_policy{};  // style/replicas/checkpointing per shard
  int server_hosts = 8;
  int clients = 2;
  int client_hosts = 2;
  SimTime checkpoint_interval = calib::kDefaultCheckpointInterval;
  bool tracing = false;

  // Live health plane: a HealthMonitor attached to every daemon plus one SLO
  // tracker per shard ("shard.<id>" over the per-shard latency/ops/failed
  // metrics that run_workload records when health is on).
  bool health = false;
};

class ShardedCluster : public harness::Testbed {
 public:
  explicit ShardedCluster(ShardedClusterConfig config);
  ~ShardedCluster();

  [[nodiscard]] const ShardedClusterConfig& config() const { return config_; }

  // --- directory ------------------------------------------------------------
  [[nodiscard]] const ShardMap& initial_map() const { return initial_map_; }
  // The map currently in force, read off a live directory replica.
  [[nodiscard]] const ShardMap& directory_map() const;
  [[nodiscard]] GroupId directory_group() const;

  // --- groups ---------------------------------------------------------------
  [[nodiscard]] std::vector<GroupId> data_groups() const;
  [[nodiscard]] int replicas_in(GroupId group) const { return controller(group).size(); }
  [[nodiscard]] replication::Replicator& replicator(GroupId group, int node);
  [[nodiscard]] ShardServant& shard_servant(GroupId group, int node);
  [[nodiscard]] sim::Process& replica_process(GroupId group, int node) const {
    return controller(group).node(node).process;
  }
  [[nodiscard]] ProcessId replica_pid(GroupId group, int node) const {
    return replica_process(group, node).id();
  }
  [[nodiscard]] bool replica_live(GroupId group, int node) const {
    return controller(group).live(node);
  }

  // --- per-shard knobs ------------------------------------------------------
  // The group itself: knob controller, membership and recovery.
  [[nodiscard]] harness::ReplicaGroup& controller(GroupId group) const;

  // --- clients --------------------------------------------------------------
  [[nodiscard]] ShardRouter& router(int client);

  // --- migration ------------------------------------------------------------
  [[nodiscard]] MigrationController& migration() { return *migration_; }
  // Provision a target group and split `shard_id` at `split_point` onto it.
  void split_shard(std::uint32_t shard_id, std::uint32_t split_point,
                   const ShardPolicy& policy, MigrationController::Done done = {});

  // --- built-in workload ----------------------------------------------------
  struct WorkloadConfig {
    int ops_per_client = 50;
    SimTime gap = msec(10);  // think time between completions
    double put_ratio = 0.5;
    double append_ratio = 0.2;  // rest are gets
    int key_space = 512;
    SimTime start_at = msec(300);
    SimTime stagger = usec(100);  // spacing between client first ops
    SimTime deadline = sec(120);
  };
  struct WorkloadResult {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  // router gave up (exhausted route attempts)
    double throughput_rps = 0.0;
    double avg_latency_us = 0.0;
    double p99_latency_us = 0.0;
    SimTime finished_at = kTimeZero;
    bool all_done = false;
  };
  WorkloadResult run_workload(const WorkloadConfig& wc);

 private:
  void build();
  harness::ReplicaGroup& add_group(GroupId id, const ShardPolicy& policy);
  // Starts a fresh (empty) replica group for `policy` and returns its id.
  GroupId provision_group(const ShardPolicy& policy);
  [[nodiscard]] NodeId pick_server_host();

  ShardedClusterConfig config_;
  ShardMap initial_map_;
  std::vector<std::unique_ptr<ShardRouter>> routers_;  // by client index
  std::unique_ptr<MigrationController> migration_;
  std::uint64_t next_group_value_ = 0;
  std::uint64_t next_replica_pid_ = 1000;
};

}  // namespace vdep::shard
