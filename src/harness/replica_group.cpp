#include "harness/replica_group.hpp"

#include <stdexcept>

#include "harness/testbed.hpp"
#include "util/assert.hpp"

namespace vdep::harness {

ReplicaGroup::Node::Node(sim::Kernel& kernel, net::Network& network, ProcessId pid,
                         NodeId host, std::string name,
                         std::unique_ptr<replication::Checkpointable> app)
    : process(kernel, pid, host, std::move(name)),
      servant(std::move(app)),
      orb(network, process, poa) {
  poa.activate(kObjectKey, *servant);
}

ReplicaGroup::ReplicaGroup(Testbed& testbed, std::uint64_t& next_pid, Config config)
    : testbed_(testbed), next_pid_(next_pid), config_(std::move(config)) {}

int ReplicaGroup::add_node(NodeId host) {
  const int index = size();
  auto& network = testbed_.network();
  nodes_.push_back(std::make_unique<Node>(
      testbed_.kernel(), network, ProcessId{next_pid_++}, host,
      config_.name_prefix + std::to_string(index) + "@" + network.host_name(host),
      config_.make_servant(index)));
  return index;
}

void ReplicaGroup::start(int index, bool join_existing) {
  auto& n = node(index);
  VDEP_ASSERT(!n.started);
  const replication::ReplicationStyle joining_style = style();
  n.started = true;

  n.replicator = std::make_unique<replication::Replicator>(
      testbed_.network(), testbed_.daemon_on(n.process.host()), n.process, n.orb, *n.servant,
      config_.id, config_.replicator);
  if (config_.auto_recover && !n.recovery_hooked) {
    n.recovery_hooked = true;
    n.process.subscribe_restart([this, index](ProcessId) {
      // The restart fires from inside a fault-plan event; rebuild the stack
      // on a fresh event, and only if the process is still up and nothing
      // else (a manual recover) already rebuilt it by then.
      testbed_.kernel().post(kTimeZero, [this, index] {
        auto& b = node(index);
        if (b.process.alive() && b.incarnation != b.process.incarnation()) recover(index);
      });
    });
  }
  n.incarnation = n.process.incarnation();
  n.replicator->start(joining_style, join_existing);
  if (config_.on_start) config_.on_start(index, *n.replicator);
}

void ReplicaGroup::recover(int index) {
  auto& n = node(index);
  if (!n.process.alive()) n.process.restart();
  // The new incarnation lost all volatile state: replicator and servant are
  // rebuilt from scratch, and the replicator joins the running group as a
  // state-transfer joiner.
  n.replicator.reset();
  n.poa.deactivate(kObjectKey);
  n.servant = config_.make_servant(index);
  n.poa.activate(kObjectKey, *n.servant);
  n.started = false;
  start(index, /*join_existing=*/true);
}

int ReplicaGroup::live_count() const {
  int live = 0;
  for (const auto& n : nodes_) {
    if (n->live()) ++live;
  }
  return live;
}

ReplicaGroup::Node& ReplicaGroup::first_live() {
  for (auto& n : nodes_) {
    if (n->live()) return *n;
  }
  throw std::runtime_error("group " + std::to_string(config_.id.value()) +
                           ": no live replica");
}

// --- knob actuation -------------------------------------------------------------

void ReplicaGroup::set_style(replication::ReplicationStyle style) {
  config_.style = style;
  first_live().replicator->request_style_switch(style);
}

replication::ReplicationStyle ReplicaGroup::style() const {
  for (const auto& n : nodes_) {
    if (n->live()) return n->replicator->style();
  }
  return config_.style;
}

void ReplicaGroup::set_replica_count(int replicas) {
  VDEP_ASSERT(replicas >= 1);
  int live = live_count();
  // Shrink: retire the most junior live members.
  for (auto it = nodes_.rbegin(); it != nodes_.rend() && live > replicas; ++it) {
    if (!(*it)->live()) continue;
    (*it)->replicator->stop();
    --live;
  }
  // Grow: each new member joins with a state transfer.
  for (; live < replicas; ++live) {
    start(add_node(config_.pick_growth_host()), /*join_existing=*/true);
  }
}

void ReplicaGroup::set_checkpoint_interval(SimTime interval) {
  config_.replicator.checkpoint_interval = interval;
  for (auto& n : nodes_) {
    if (n->live()) n->replicator->set_checkpoint_interval(interval);
  }
}

void ReplicaGroup::set_checkpoint_anchor_interval(std::uint32_t interval) {
  config_.replicator.checkpoint_anchor_interval = interval;
  for (auto& n : nodes_) {
    if (n->live()) n->replicator->set_checkpoint_anchor_interval(interval);
  }
}

}  // namespace vdep::harness
