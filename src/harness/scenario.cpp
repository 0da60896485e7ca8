#include "harness/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vdep::harness {

namespace {
constexpr GroupId kAppGroup{1};
constexpr GroupId kMonitorGroup{2};
constexpr std::uint16_t kServerPort = 7001;
// Replicas join staggered at boot; clients start once the group is settled.
constexpr SimTime kReplicaBootStagger = msec(1);
constexpr SimTime kClientStartTime = msec(200);
// Committed-but-unserved CPU time on a replica host that the health plane's
// queue-depth probe flags.
constexpr double kCpuBacklogThresholdUs = 100'000.0;

void set_latencies(ExperimentResult& result, const Sampler& merged) {
  result.avg_latency_us = merged.stats().mean();
  result.jitter_us = merged.stats().stddev();
  result.p50_latency_us = merged.percentile(50);
  result.p99_latency_us = merged.percentile(99);
  result.max_latency_us = merged.stats().max();
}
}  // namespace

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  VDEP_ASSERT(config_.clients >= 1);
  VDEP_ASSERT(config_.replicas >= 1);
  config_.max_replicas = std::max(config_.max_replicas, config_.replicas);
  if (config_.health_adaptation) config_.health = true;
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  Layout layout;
  layout.seed = config_.seed;
  layout.tracing = config_.tracing;
  layout.client_hosts = config_.clients;
  layout.server_hosts = config_.max_replicas;
  layout.health = config_.health;
  layout.health_setup = [this](monitor::health::HealthMonitor& health) {
    monitor::health::SloSpec slo;
    slo.name = "service";
    slo.latency_metric = "service.latency_us";
    slo.request_counter = "service.requests";
    slo.failure_counter = "service.failures";
    health.add_slo(slo);
    // Queue-depth probes on the replica machines: committed-but-unserved CPU
    // time is the backlog a gray failure (e.g. a slow host) builds up.
    for (NodeId host : server_hosts()) {
      auto& cpu = network().cpu(host);
      health.add_probe("cpu_backlog." + network().host_name(host), kCpuBacklogThresholdUs,
                       [&cpu] { return to_usec(cpu.backlog()); });
    }
  };
  Testbed::build(layout);
  channels_ = std::make_unique<net::ChannelManager>(network());

  // Replicas. Growth takes pids after the clients' and lands on a replica
  // host with no live resident.
  ReplicaGroup::Config group;
  group.id = kAppGroup;
  group.name_prefix = "replica";
  group.style = config_.style;
  group.replicator.checkpoint_interval = config_.checkpoint_interval;
  group.replicator.checkpoint_every_requests = config_.checkpoint_every_requests;
  group.replicator.checkpoint_anchor_interval = config_.checkpoint_anchor_interval;
  group.replicator.skip_reply_dedup = config_.skip_reply_dedup;
  group.auto_recover = config_.auto_recover;
  group.make_servant = [this](int index) -> std::unique_ptr<replication::Checkpointable> {
    if (config_.make_servant) return config_.make_servant(index);
    return std::make_unique<app::TestServant>(app::TestServant::Config{
        config_.state_bytes, config_.reply_bytes, config_.app_exec_time});
  };
  group.pick_growth_host = [this] {
    for (NodeId host : server_hosts()) {
      const auto& nodes = group_->nodes();
      if (std::none_of(nodes.begin(), nodes.end(), [host](const auto& n) {
            return n->live() && n->process.host() == host;
          })) {
        return host;
      }
    }
    throw std::runtime_error("no free replica host; raise max_replicas");
  };
  group.on_start = [this](int index, replication::Replicator& replicator) {
    if (config_.on_replicator_created) config_.on_replicator_created(index, replicator);
    attach_monitoring(index, replicator);
  };
  group_ = &add_group(next_pid_, std::move(group));
  for (int r = 0; r < config_.replicas; ++r) {
    const int index = group_->add_node(server_hosts()[static_cast<std::size_t>(r)]);
    if (config_.replicated) {
      kernel().post(kReplicaBootStagger * (r + 1),
                    [this, index] { group_->start(index, /*join_existing=*/false); });
    } else if (index == 0) {
      kernel().post(kReplicaBootStagger, [this] { start_plain_server(); });
    }
  }

  // Clients, one per client machine.
  next_pid_ = 5000;
  for (int c = 0; c < config_.clients; ++c) {
    const NodeId host = client_host(c);
    std::optional<replication::ClientCoordinatorParams> coordinator;
    if (config_.replicated) {
      coordinator.emplace();
      coordinator->policy = config_.response_policy;
    }
    auto& client = add_client(ProcessId{next_pid_++}, host,
                              "client" + std::to_string(c) + "@" + network().host_name(host),
                              coordinator);
    if (!config_.replicated) {
      std::unique_ptr<orb::ClientTransport> transport =
          std::make_unique<orb::DirectClientTransport>(*channels_, host);
      const bool client_intercepted =
          config_.intercept == interpose::InterceptMode::kClientOnly ||
          config_.intercept == interpose::InterceptMode::kBoth;
      if (client_intercepted) {
        transport = std::make_unique<interpose::InterceptOnlyClientTransport>(
            network(), client.process, std::move(transport));
      }
      client.orb.use_transport(std::move(transport));
    }
  }
}

// Plain/intercepted TCP server: only replica 0 serves, with no replicator.
void Scenario::start_plain_server() {
  auto& node = group_->node(0);
  const bool server_intercepted =
      config_.intercept == interpose::InterceptMode::kServerOnly ||
      config_.intercept == interpose::InterceptMode::kBoth;
  if (server_intercepted) {
    intercepting_acceptor_ = std::make_unique<interpose::InterceptOnlyServerAcceptor>(
        *channels_, node.process.host(), kServerPort, node.orb);
  } else {
    acceptor_ = std::make_unique<orb::DirectServerAcceptor>(*channels_, node.process.host(),
                                                            kServerPort, node.orb);
  }
}

// Replica `index` got a new replicator (boot, growth or recovery): replace
// its monitoring and adaptation with ones bound to that replicator.
void Scenario::attach_monitoring(int index, replication::Replicator& replicator) {
  if (!config_.enable_replicated_state && !config_.adaptation && !config_.health_adaptation) {
    return;
  }
  if (monitoring_.size() <= static_cast<std::size_t>(index)) {
    monitoring_.resize(static_cast<std::size_t>(index) + 1);
  }
  auto& m = monitoring_[static_cast<std::size_t>(index)];
  m.adaptation.reset();
  m.state.reset();
  if (config_.enable_replicated_state || config_.adaptation) {
    auto& process = group_->node(index).process;
    auto& network = this->network();
    m.state = std::make_unique<monitor::ReplicatedStateObject>(
        daemon_on(process.host()), process, kMonitorGroup,
        [&replicator, &process, &network] {
          monitor::StateEntry entry;
          entry.cpu_load = network.cpu(process.host()).load_since_last_sample();
          entry.request_rate = replicator.observed_request_rate();
          return entry;
        });
    m.state->start();
  }
  if (config_.adaptation) {
    m.adaptation = std::make_unique<adaptive::AdaptationManager>(
        replicator, *m.state,
        std::make_unique<adaptive::RateThresholdPolicy>(*config_.adaptation));
    m.adaptation->start();
  } else if (config_.health_adaptation) {
    m.adaptation = std::make_unique<adaptive::AdaptationManager>(
        replicator,
        std::make_unique<adaptive::HealthThresholdPolicy>(*config_.health_adaptation));
    m.adaptation->set_health_source(&health());
    m.adaptation->start();
  }
}

orb::ObjectRef Scenario::object_ref() const {
  orb::ObjectRef ref;
  ref.object_key = ReplicaGroup::kObjectKey;
  ref.direct = orb::DirectProfile{server_hosts().front(), kServerPort};
  ref.group = orb::GroupProfile{kAppGroup};
  return ref;
}

replication::Replicator& Scenario::replicator(int index) {
  auto& r = group_->node(index).replicator;
  VDEP_ASSERT_MSG(r != nullptr, "not a replicated scenario");
  return *r;
}

app::TestServant& Scenario::servant(int index) {
  auto* typed = dynamic_cast<app::TestServant*>(group_->node(index).servant.get());
  VDEP_ASSERT_MSG(typed != nullptr, "scenario uses a custom servant; call app()");
  return *typed;
}

std::vector<std::uint64_t> Scenario::live_state_digests() const {
  std::vector<std::uint64_t> out;
  for (const auto& n : group_->nodes()) {
    if (n->live()) out.push_back(n->servant->state_digest());
  }
  return out;
}

// --- runs -----------------------------------------------------------------------

ExperimentResult Scenario::run_closed_loop(CycleConfig cycle) {
  arm_faults();

  int warm_remaining = config_.clients;
  int done_remaining = config_.clients;
  SimTime measure_start = kTimeZero;
  std::uint64_t bytes_at_measure_start = 0;

  closed_.resize(static_cast<std::size_t>(config_.clients));
  for (int c = 0; c < config_.clients; ++c) {
    app::ClosedLoopClient::Config cfg;
    cfg.request_bytes = config_.request_bytes;
    cfg.warmup_requests = cycle.warmup_requests;
    cfg.total_requests = cycle.warmup_requests + cycle.requests_per_client;
    auto& closed = closed_[static_cast<std::size_t>(c)];
    closed = std::make_unique<app::ClosedLoopClient>(client(c).orb, object_ref(), cfg);
    closed->set_on_warmup_done([&] {
      if (--warm_remaining == 0) {
        measure_start = kernel().now();
        network().reset_totals();
        bytes_at_measure_start = 0;
      }
    });
    closed->set_on_done([&] {
      if (--done_remaining == 0) kernel().stop();
    });
    if (health_enabled()) {
      closed->set_on_complete([this](double latency_us) {
        metrics().observe("service.latency_us", latency_us);
        metrics().add("service.requests");
      });
    }
    kernel().post_at(kClientStartTime + usec(250) * c,
                     [this, c] { closed_[static_cast<std::size_t>(c)]->start(); });
  }

  kernel().run_until(cycle.max_duration);

  // Gather.
  ExperimentResult result;
  Sampler merged;
  SimTime last_done = kTimeZero;
  for (int c = 0; c < config_.clients; ++c) {
    const auto& closed = *closed_[static_cast<std::size_t>(c)];
    merged.merge(closed.latencies());
    last_done = std::max(last_done, closed.last_completed_at());
    result.completed += static_cast<std::uint64_t>(closed.completed());
    if (const auto* coordinator = client(c).coordinator) {
      result.retransmissions += coordinator->retransmissions();
    }
  }
  set_latencies(result, merged);

  const SimTime window = last_done - measure_start;
  result.duration_s = to_sec(window);
  if (window > kTimeZero) {
    result.bandwidth_mbps =
        static_cast<double>(network().totals().bytes - bytes_at_measure_start) / 1e6 /
        to_sec(window);
    result.throughput_rps = static_cast<double>(merged.count()) / to_sec(window);
  }
  result.faults_tolerated = config_.replicated ? group_->live_count() - 1 : 0;
  return result;
}

OpenLoopResult Scenario::run_open_loop(const OpenLoopConfig& config) {
  arm_faults();
  OpenLoopResult result;

  // Split the plan's rate across the clients.
  std::vector<app::RatePlan::Segment> scaled;
  for (const auto& seg : config.plan.segments()) {
    scaled.push_back({seg.start, seg.rate_rps / static_cast<double>(config_.clients)});
  }
  const app::RatePlan per_client_plan(scaled);

  open_.resize(static_cast<std::size_t>(config_.clients));
  for (int c = 0; c < config_.clients; ++c) {
    app::OpenLoopClient::Config cfg;
    cfg.request_bytes = config.request_bytes;
    cfg.duration = config.duration;
    open_[static_cast<std::size_t>(c)] = std::make_unique<app::OpenLoopClient>(
        client(c).orb, object_ref(), per_client_plan, cfg,
        kernel().fork_rng(0xc11e0000 + static_cast<std::uint64_t>(c)));
    kernel().post_at(kClientStartTime + usec(250) * c,
                     [this, c] { open_[static_cast<std::size_t>(c)]->start(); });
  }

  // Periodic sampling of the Fig. 6 series.
  const SimTime sample_end = kClientStartTime + config.duration;
  std::function<void()> sample = [&] {
    if (kernel().now() > sample_end) return;
    auto& head = *group_->first_live().replicator;
    result.observed_rate.record(kernel().now(), head.observed_request_rate());
    const auto style = head.style();
    const bool active_family = style == replication::ReplicationStyle::kActive ||
                               style == replication::ReplicationStyle::kSemiActive;
    result.style_series.record(kernel().now(), active_family ? 1.0 : 0.0);
    kernel().post(config.sample_interval, sample);
  };
  kernel().post_at(kClientStartTime, sample);

  const std::uint64_t bytes_before = network().totals().bytes;
  kernel().run_until(kClientStartTime + config.duration + sec(2));

  Sampler merged;
  for (int c = 0; c < config_.clients; ++c) {
    const auto& open = *open_[static_cast<std::size_t>(c)];
    merged.merge(open.latencies());
    result.totals.completed += open.completed();
    if (const auto* coordinator = client(c).coordinator) {
      result.totals.retransmissions += coordinator->retransmissions();
    }
  }
  set_latencies(result.totals, merged);
  result.totals.duration_s = to_sec(config.duration);
  result.totals.bandwidth_mbps =
      static_cast<double>(network().totals().bytes - bytes_before) / 1e6 /
      to_sec(config.duration);
  result.totals.throughput_rps =
      static_cast<double>(result.totals.completed) / to_sec(config.duration);
  result.totals.faults_tolerated = group_->live_count() - 1;
  result.switches = group_->first_live().replicator->switch_history();
  return result;
}

}  // namespace vdep::harness
