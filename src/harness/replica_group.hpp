// ReplicaGroup: one replica group, the thing the paper's low-level knobs
// (Table 1: replication style, number of replicas, checkpoint interval) act
// on. It owns every member's process, servant, POA, server ORB and
// replicator; it starts, recovers and grows members; and it is the one
// implementation of knobs::ReplicaGroupController.
//
// Groups live on a harness::Testbed: harness::Scenario adds one, and
// shard::ShardedCluster one per shard plus the directory group. The owner
// keeps placement and naming policy and passes in only what differs between
// testbeds: the member name prefix, the pid counter, the servant factory and
// the host a grown member lands on. Boot schedules stay with the owner too;
// the group only starts a member when told to.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "knobs/low_level.hpp"
#include "orb/orb_core.hpp"
#include "replication/replicator.hpp"

namespace vdep::harness {

class Testbed;

class ReplicaGroup final : public knobs::ReplicaGroupController {
 public:
  // Every member activates its servant under this key.
  static constexpr ObjectId kObjectKey{1};

  // One member: a process and the replication stack built on it.
  struct Node {
    Node(sim::Kernel& kernel, net::Network& network, ProcessId pid, NodeId host,
         std::string name, std::unique_ptr<replication::Checkpointable> app);

    sim::Process process;
    std::unique_ptr<replication::Checkpointable> servant;
    orb::Poa poa;
    orb::ServerOrb orb;
    std::unique_ptr<replication::Replicator> replicator;
    bool started = false;
    bool recovery_hooked = false;
    // Process incarnation the replicator was built for; a mismatch means the
    // stack is stale (the process restarted underneath it) and needs recovery.
    std::uint64_t incarnation = 0;

    [[nodiscard]] bool live() const {
      return started && process.alive() && replicator != nullptr &&
             !replicator->stopped();
    }
  };

  struct Config {
    GroupId id;
    std::string name_prefix;  // member i is "<prefix><i>@<host>"
    replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
    replication::ReplicatorParams replicator;
    // A member whose process the fault plan restarts rebuilds its stack and
    // rejoins with a state transfer (see recover()).
    bool auto_recover = false;
    // Builds member i's application; called again on every recovery.
    std::function<std::unique_ptr<replication::Checkpointable>(int node)> make_servant;
    // Host for a member added by set_replica_count (may throw if none).
    std::function<NodeId()> pick_growth_host;
    // Optional: called each time a member's replicator is built and started
    // (boot, growth, recovery).
    std::function<void(int node, replication::Replicator&)> on_start;
  };

  // `next_pid` is the owner's pid counter; each new member takes the next id.
  ReplicaGroup(Testbed& testbed, std::uint64_t& next_pid, Config config);

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  // Adds a member on `host`, not yet started; returns its index.
  int add_node(NodeId host);
  // Builds member `node`'s replicator and starts it in the style the live
  // members run (the configured style while none is live), founding the
  // group or joining it with a state transfer.
  void start(int node, bool join_existing);
  // Rebuilds a crashed (or just-restarted) member as a fresh incarnation:
  // blank servant, new replicator joining the running group with a state
  // transfer.
  void recover(int node);

  [[nodiscard]] GroupId id() const { return config_.id; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const Node& node(int i) const {
    return *nodes_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  [[nodiscard]] bool live(int i) const { return node(i).live(); }
  [[nodiscard]] int live_count() const;
  // Throws std::runtime_error when no member is live.
  [[nodiscard]] Node& first_live();

  // --- knobs::ReplicaGroupController ----------------------------------------
  void set_style(replication::ReplicationStyle style) override;
  [[nodiscard]] replication::ReplicationStyle style() const override;
  void set_replica_count(int replicas) override;
  [[nodiscard]] int replica_count() const override { return live_count(); }
  void set_checkpoint_interval(SimTime interval) override;
  [[nodiscard]] SimTime checkpoint_interval() const override {
    return config_.replicator.checkpoint_interval;
  }
  void set_checkpoint_anchor_interval(std::uint32_t interval) override;
  [[nodiscard]] std::uint32_t checkpoint_anchor_interval() const override {
    return config_.replicator.checkpoint_anchor_interval;
  }

 private:
  Testbed& testbed_;
  std::uint64_t& next_pid_;
  Config config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace vdep::harness
