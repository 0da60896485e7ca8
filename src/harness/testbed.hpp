// Testbed: the simulated deployment under harness::Scenario and
// shard::ShardedCluster, built once. As in the paper, client machines
// "cli<i>" come first, then server machines "srv<i>", with a
// group-communication daemon on every host. It owns the kernel, network,
// daemons, metrics registry, optional health plane, fault plan, replica
// groups and client endpoints; the owners that derive from it keep only their
// policy (naming, placement, workloads).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gcs/daemon.hpp"
#include "harness/replica_group.hpp"
#include "monitor/health/health_monitor.hpp"
#include "net/fault_plan.hpp"
#include "orb/orb_core.hpp"
#include "replication/client_coordinator.hpp"

namespace vdep::harness {

class Testbed {
 public:
  // A client's process and ORB. With a coordinator, the ORB's transport is a
  // ClientCoordinator on the daemon of the client's host.
  struct ClientEndpoint {
    ClientEndpoint(sim::Kernel& kernel, net::Network& network, ProcessId pid, NodeId host,
                   std::string name)
        : process(kernel, pid, host, std::move(name)), orb(network, process) {}

    sim::Process process;
    orb::ClientOrb orb;
    replication::ClientCoordinator* coordinator = nullptr;  // owned by orb
  };

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] monitor::MetricsRegistry& metrics() { return metrics_; }
  // Health plane (health() asserts the owner's config enabled it).
  [[nodiscard]] bool health_enabled() const { return health_ != nullptr; }
  [[nodiscard]] monitor::health::HealthMonitor& health();

  [[nodiscard]] NodeId client_host(int i) const;
  [[nodiscard]] std::span<const NodeId> server_hosts() const;
  // The daemon on `host`; throws std::out_of_range if there is none.
  [[nodiscard]] gcs::Daemon& daemon_on(NodeId host);

  // Adds a client endpoint on `host`. Without coordinator parameters the
  // caller installs the ORB's transport itself.
  ClientEndpoint& add_client(
      ProcessId pid, NodeId host, std::string name,
      std::optional<replication::ClientCoordinatorParams> coordinator =
          replication::ClientCoordinatorParams{});
  // Endpoints in the order they were added.
  [[nodiscard]] ClientEndpoint& client(int i) { return *clients_.at(static_cast<std::size_t>(i)); }

  // Schedule faults before the owner's run method (which arms them), or call
  // arm_faults() when driving the kernel by hand. Each action finds its
  // targets in the kernel's process table when it fires, so members grown
  // and groups provisioned after arming are crashable too, and so is every
  // other process on a crashed host (a sharded cluster's migrator on "cli0").
  [[nodiscard]] net::FaultPlan& fault_plan() { return fault_plan_; }
  void arm_faults();

  // Lets in-flight work settle after a run stopped (slower replicas may still
  // have executions queued). Call before comparing replica states.
  void drain(SimTime extra = msec(200));

 protected:
  struct Layout {
    std::uint64_t seed = 1;
    bool tracing = false;
    int client_hosts = 1;
    int server_hosts = 1;
    bool health = false;
    // Adds the owner's SLOs and probes to the health plane before it starts.
    std::function<void(monitor::health::HealthMonitor&)> health_setup;
  };

  Testbed() = default;
  ~Testbed();

  // Builds kernel, network, hosts and daemons, starts the health plane (after
  // the daemons exist, before they boot), then boots the daemons.
  void build(const Layout& layout);

  // Adds a replica group; `next_pid` is the owner's pid counter.
  ReplicaGroup& add_group(std::uint64_t& next_pid, ReplicaGroup::Config config);
  // Groups in the order they were added.
  [[nodiscard]] const auto& groups() const { return groups_; }

 private:
  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<net::Network> network_;
  std::vector<NodeId> hosts_;  // clients first, then servers
  int client_hosts_ = 0;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons_;
  monitor::MetricsRegistry metrics_;
  std::unique_ptr<monitor::health::HealthMonitor> health_;
  net::FaultPlan fault_plan_;
  bool faults_armed_ = false;
  std::vector<std::unique_ptr<ReplicaGroup>> groups_;
  std::vector<std::unique_ptr<ClientEndpoint>> clients_;
};

}  // namespace vdep::harness
