#include "harness/testbed.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace vdep::harness {

Testbed::~Testbed() = default;

void Testbed::build(const Layout& layout) {
  kernel_ = std::make_unique<sim::Kernel>(layout.seed);
  if (layout.tracing) kernel_->tracer().enable();
  network_ = std::make_unique<net::Network>(*kernel_);

  // Client hosts first: the lowest-id daemon is the GCS leader/sequencer, and
  // the request-path calibration puts it on the first client's machine.
  auto add_hosts = [this](const std::string& prefix, int count) {
    for (int i = 0; i < count; ++i) {
      hosts_.push_back(network_->add_host(prefix + std::to_string(i)));
    }
  };
  client_hosts_ = layout.client_hosts;
  add_hosts("cli", layout.client_hosts);
  add_hosts("srv", layout.server_hosts);
  std::uint64_t pid = 100;  // daemons take the lowest pids
  for (NodeId host : hosts_) {
    daemons_.push_back(std::make_unique<gcs::Daemon>(*kernel_, *network_, ProcessId{pid++},
                                                     host, hosts_, gcs::DaemonParams{}));
  }

  if (layout.health) {
    health_ = std::make_unique<monitor::health::HealthMonitor>(
        *kernel_, metrics_, monitor::health::HealthParams{});
    for (auto& d : daemons_) health_->attach(*d);
    layout.health_setup(*health_);
    health_->start();
  }

  for (auto& d : daemons_) d->boot();
}

monitor::health::HealthMonitor& Testbed::health() {
  VDEP_ASSERT_MSG(health_ != nullptr, "testbed built without its health plane");
  return *health_;
}

NodeId Testbed::client_host(int i) const {
  VDEP_ASSERT(i >= 0 && i < client_hosts_);
  return hosts_[static_cast<std::size_t>(i)];
}

std::span<const NodeId> Testbed::server_hosts() const {
  return std::span<const NodeId>(hosts_).subspan(static_cast<std::size_t>(client_hosts_));
}

gcs::Daemon& Testbed::daemon_on(NodeId host) {
  for (const auto& d : daemons_) {
    if (d->host() == host) return *d;
  }
  throw std::out_of_range("no daemon on host " + host.str());
}

Testbed::ClientEndpoint& Testbed::add_client(
    ProcessId pid, NodeId host, std::string name,
    std::optional<replication::ClientCoordinatorParams> coordinator) {
  auto& client = *clients_.emplace_back(
      std::make_unique<ClientEndpoint>(*kernel_, *network_, pid, host, std::move(name)));
  if (coordinator) {
    auto transport = std::make_unique<replication::ClientCoordinator>(
        *network_, daemon_on(host), client.process, *coordinator);
    client.coordinator = transport.get();
    client.orb.use_transport(std::move(transport));
  }
  return client;
}

ReplicaGroup& Testbed::add_group(std::uint64_t& next_pid, ReplicaGroup::Config config) {
  return *groups_.emplace_back(
      std::make_unique<ReplicaGroup>(*this, next_pid, std::move(config)));
}

void Testbed::arm_faults() {
  if (faults_armed_ || fault_plan_.empty()) return;
  faults_armed_ = true;
  std::vector<sim::Process*> processes;
  for (auto& d : daemons_) processes.push_back(d.get());
  for (const auto& g : groups_) {
    for (const auto& n : g->nodes()) processes.push_back(&n->process);
  }
  for (auto& c : clients_) processes.push_back(&c->process);
  fault_plan_.arm(*kernel_, *network_, std::move(processes));
}

void Testbed::drain(SimTime extra) { kernel_->run_until(kernel_->now() + extra); }

}  // namespace vdep::harness
