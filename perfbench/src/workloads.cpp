#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "adaptive/switch_protocol.hpp"
#include "attribution.hpp"
#include "chaos/campaign.hpp"
#include "harness/scenario.hpp"
#include "probes.hpp"
#include "shard/cluster.hpp"

namespace perfbench {

using namespace vdep;

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// CPU time of the whole process (every thread), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct MetricSpec {
  const char* name;
  const char* unit;
  Clock clock;
};

// The end-to-end metrics. The one-line result lists the first kJsonEndToEnd:
// every workload reports them, none reads 0, and none of the times is pinned
// across seeds. The rest are printed in the table and folded into the
// determinism digest:
// sim_bytes_per_request applies to the request workloads only, recovery and
// detection to chaos_fleet only, fail_ratio is 0 on a correct run, and
// rpc_active's p99 sits on a latency plateau that no seed moves.
constexpr MetricSpec kEndToEnd[] = {
    {"requests_per_s", "1/s", Clock::kHost},
    {"trials_per_s", "1/s", Clock::kHost},
    {"setup_s", "s", Clock::kHost},
    {"peak_rss_mb", "MB", Clock::kHost},
    {"sim_latency_p50_us", "us", Clock::kSim},
    {"sim_latency_p99_us", "us", Clock::kSim},
    {"sim_bytes_per_request", "B", Clock::kSim},
    {"sim_recovery_p99_ms", "ms", Clock::kSim},
    {"sim_detection_p99_ms", "ms", Clock::kSim},
    {"fail_ratio", "ratio", Clock::kNone},
};
constexpr std::size_t kJsonEndToEnd = 5;

constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_request", "count", Clock::kSim},
    {"sim.events_per_s", "1/s", Clock::kHost},
    {"sim.queue_host_us_per_request", "us", Clock::kHost},
    {"net.packets_per_request", "count", Clock::kSim},
    {"net.sim_wait_us_per_request", "us", Clock::kSim},
    {"gcs.sim_self_us_per_request", "us", Clock::kSim},
    {"gcs.host_us_per_request", "us", Clock::kHost},
    {"gcs.view_changes_per_trial", "count", Clock::kSim},
    {"orb.sim_self_us_per_request", "us", Clock::kSim},
    {"orb.host_us_per_request", "us", Clock::kHost},
    {"replication.sim_self_us_per_request", "us", Clock::kSim},
    {"replication.retransmissions_per_request", "count", Clock::kSim},
    {"replication.checkpoints_per_request", "count", Clock::kSim},
    {"replication.checkpoint_bytes_per_request", "B", Clock::kSim},
    {"replication.checkpoint_sim_us", "us", Clock::kSim},
    {"replication.reply_cache_entries", "count", Clock::kSim},
    {"replication.client_frontier_entries", "count", Clock::kSim},
    {"replication.checkpoint_host_us_per_request", "us", Clock::kHost},
    {"app.snapshot_host_us", "us", Clock::kHost},
    {"shard.stale_rejections_per_request", "count", Clock::kSim},
    {"shard.refreshes_per_request", "count", Clock::kSim},
    {"shard.route_sim_self_us_per_request", "us", Clock::kSim},
    {"adaptive.switches", "count", Clock::kSim},
    {"adaptive.switch_sim_us_max", "us", Clock::kSim},
    {"adaptive.active_share", "ratio", Clock::kSim},
    {"monitor.detection_p50_ms", "ms", Clock::kSim},
    {"monitor.detection_missed", "count", Clock::kSim},
    {"monitor.health_events_per_trial", "count", Clock::kSim},
    {"chaos.recovery_p50_ms", "ms", Clock::kSim},
    {"chaos.completed_ops_per_trial", "count", Clock::kSim},
    {"parallel.efficiency", "ratio", Clock::kHost},
    {"obs.tracing_overhead", "ratio", Clock::kHost},
    {"obs.spans_dropped", "count", Clock::kSim},
    {"unattributed.host_us_per_request", "us", Clock::kHost},
};

// The host-cost attributions compared for "largest attributed host cost".
constexpr const char* kHostAttributions[] = {
    "sim.queue_host_us_per_request",
    "gcs.host_us_per_request",
    "orb.host_us_per_request",
    "replication.checkpoint_host_us_per_request",
};

// Per-layer values by name (anything a workload does not exercise stays 0),
// plus free-text lines for the table.
struct Sheet {
  std::map<std::string, double, std::less<>> values;
  std::vector<std::string> notes;
  double& operator[](const std::string& name) { return values[name]; }
};

// What one pass measured.
struct Pass {
  double setup_s = 0.0;  // testbed construction (0 when the pass builds none)
  double run_s = 0.0;    // simulated workload, wall clock
  double total_s = 0.0;  // build + run + checks
  double cpu_s = 0.0;    // process CPU time of the run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;  // completed simulated client requests
  std::uint64_t trials = 0;    // testbeds judged
  std::uint64_t events = 0;    // kernel events (0 where not observable)
  Result sim;                  // sim-clock end-to-end metrics
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds and discards the testbed once; returns its construction time.
  virtual double setup_sample() = 0;
  // Builds, runs and checks one pass. A traced pass keeps its testbed for
  // attribute().
  virtual Pass run_pass(bool traced) = 0;
  // Fills the per-layer sheet from the traced pass's end state.
  virtual void attribute(Sheet& sheet, const Pass& traced, const Pass& untraced) = 0;
};

// Sim self time per request of every module, from one span summary.
void attribute_spans(Sheet& sheet, const SpanSummary& spans, double requests,
                     double trials) {
  const auto per_request_us = [&](std::string_view layer) {
    return ratio(static_cast<double>(layer_self_ns(spans, layer)) / 1000.0, requests);
  };
  sheet["gcs.sim_self_us_per_request"] = per_request_us("gcs");
  sheet["orb.sim_self_us_per_request"] = per_request_us("orb");
  sheet["replication.sim_self_us_per_request"] = per_request_us("replication");
  sheet["shard.route_sim_self_us_per_request"] = per_request_us("shard");
  sheet["net.sim_wait_us_per_request"] = per_request_us("client");
  sheet["gcs.view_changes_per_trial"] =
      ratio(static_cast<double>(span_count(spans, "gcs.view") +
                                span_count(spans, "gcs.takeover")),
            trials);
  if (const auto it = spans.find("rep.checkpoint"); it != spans.end()) {
    sheet["replication.checkpoint_sim_us"] =
        ratio(static_cast<double>(it->second.duration_ns) / 1000.0,
              static_cast<double>(it->second.count));
  }
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %-12s %10s %16s %16s", "span", "module", "count",
                "self_us/request", "mean_dur_us");
  sheet.notes.emplace_back(line);
  for (const auto& [name, totals] : spans) {
    std::snprintf(line, sizeof line, "%-18s %-12s %10llu %16.3f %16.3f", name.c_str(),
                  std::string(layer_of(name)).c_str(),
                  static_cast<unsigned long long>(totals.count),
                  ratio(static_cast<double>(totals.self_ns) / 1000.0, requests),
                  ratio(static_cast<double>(totals.duration_ns) / 1000.0,
                        static_cast<double>(totals.count)));
    sheet.notes.emplace_back(line);
  }
}

// Counters summed (or maxed) over a set of live replicators.
struct ReplicaTotals {
  std::vector<replication::Replicator*> replicas;
  std::uint64_t executed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t installs = 0;
  std::size_t reply_cache_max = 0;
  std::size_t frontier_max = 0;

  void add(replication::Replicator& r) {
    replicas.push_back(&r);
    executed += r.requests_executed();
    checkpoints += r.checkpoints_taken();
    checkpoint_bytes += r.checkpoint_bytes_sent();
    installs += r.installs_full() + r.installs_delta();
    reply_cache_max = std::max(reply_cache_max, r.reply_cache().size());
    frontier_max = std::max(frontier_max, r.applied_frontier().size());
  }
};

// Replication counters, host probes and the unattributed remainder, shared
// by the workloads whose testbed is reachable after the run.
void attribute_testbed(Sheet& sheet, const Pass& traced, const Pass& untraced,
                       const net::TrafficTotals& traffic, double window_requests,
                       const ReplicaTotals& replicas, std::size_t request_bytes,
                       std::size_t reply_bytes) {
  const auto requests = static_cast<double>(traced.requests);
  const double events_per_request = ratio(static_cast<double>(traced.events), requests);
  sheet["sim.events_per_request"] = events_per_request;
  sheet["sim.events_per_s"] = ratio(static_cast<double>(untraced.events), untraced.run_s);
  sheet["sim.queue_host_us_per_request"] = kernel_ns_per_event() * events_per_request / 1000.0;

  const double packets_per_request = ratio(static_cast<double>(traffic.packets), window_requests);
  sheet["net.packets_per_request"] = packets_per_request;
  const auto bytes_per_packet = static_cast<std::size_t>(
      ratio(static_cast<double>(traffic.bytes), static_cast<double>(traffic.packets)));
  sheet["gcs.host_us_per_request"] = gcs_codec_ns(bytes_per_packet) * packets_per_request / 1000.0;
  sheet["orb.host_us_per_request"] = giop_round_trip_ns(request_bytes, reply_bytes) *
                                     ratio(static_cast<double>(replicas.executed), requests) /
                                     1000.0;

  sheet["replication.checkpoints_per_request"] =
      ratio(static_cast<double>(replicas.checkpoints), requests);
  sheet["replication.checkpoint_bytes_per_request"] =
      ratio(static_cast<double>(replicas.checkpoint_bytes), requests);
  sheet["replication.reply_cache_entries"] = static_cast<double>(replicas.reply_cache_max);
  sheet["replication.client_frontier_entries"] = static_cast<double>(replicas.frontier_max);
  // Each replica's checkpoint path is probed on its own end state: cut and
  // encode per checkpoint it took, decode per checkpoint it installed. The
  // snapshot cost is read off the replica that checkpointed most.
  double checkpoint_ns = 0.0;
  std::uint64_t most_checkpoints = 0;
  for (replication::Replicator* r : replicas.replicas) {
    const std::uint64_t installs = r->installs_full() + r->installs_delta();
    const bool first = r == replicas.replicas.front();
    if (r->checkpoints_taken() == 0 && installs == 0 && !first) continue;
    const CheckpointProbe probe = probe_checkpoint(*r);
    checkpoint_ns += (probe.serialize_recent_ns + probe.encode_ns) *
                         static_cast<double>(r->checkpoints_taken()) +
                     probe.decode_ns * static_cast<double>(installs);
    if (first || r->checkpoints_taken() > most_checkpoints) {
      most_checkpoints = r->checkpoints_taken();
      sheet["app.snapshot_host_us"] = probe.snapshot_ns / 1000.0;
    }
  }
  sheet["replication.checkpoint_host_us_per_request"] = ratio(checkpoint_ns, requests) / 1000.0;

  double attributed = 0.0;
  for (const char* name : kHostAttributions) attributed += sheet[name];
  sheet["unattributed.host_us_per_request"] =
      ratio(untraced.run_s * 1e6, static_cast<double>(untraced.requests)) - attributed;
}

// --- Scenario workloads ------------------------------------------------------

class ScenarioWorkload : public Workload {
 public:
  double setup_sample() override {
    const auto start = WallClock::now();
    harness::Scenario scenario(config(false));
    return seconds_since(start);
  }

  Pass run_pass(bool traced) override {
    Pass pass;
    scenario_.reset();
    const auto start = WallClock::now();
    scenario_ = std::make_unique<harness::Scenario>(config(traced));
    pass.setup_s = seconds_since(start);
    const auto run_start = WallClock::now();
    const double cpu_start = process_cpu_s();
    drive(*scenario_, pass);
    pass.run_s = seconds_since(run_start);
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.trials = 1;
    pass.events = scenario_->kernel().events_executed();

    scenario_->drain();
    const auto digests = scenario_->live_state_digests();
    const int expected = scenario_->config().replicas;
    if (static_cast<int>(digests.size()) != expected) {
      pass.problems.push_back("live replicas " + std::to_string(digests.size()) +
                              " != " + std::to_string(expected));
    }
    if (std::adjacent_find(digests.begin(), digests.end(), std::not_equal_to<>()) !=
        digests.end()) {
      pass.problems.push_back("replica state digests disagree after drain");
    }
    pass.total_s = seconds_since(start);
    if (!traced) scenario_.reset();
    return pass;
  }

  void attribute(Sheet& sheet, const Pass& traced, const Pass& untraced) override {
    harness::Scenario& s = *scenario_;
    ReplicaTotals replicas;
    for (int i = 0; i < s.config().replicas; ++i) replicas.add(s.replicator(i));
    attribute_testbed(sheet, traced, untraced, s.network().totals(), window_requests_,
                      replicas, s.config().request_bytes, s.config().reply_bytes);
    sheet["replication.retransmissions_per_request"] =
        ratio(static_cast<double>(retransmissions_), static_cast<double>(traced.requests));
    sheet["chaos.completed_ops_per_trial"] = static_cast<double>(traced.requests);
    SpanSummary spans;
    accumulate(spans, rows_from_tracer(s.kernel().tracer()));
    attribute_spans(sheet, spans, static_cast<double>(traced.requests), 1.0);
    sheet["obs.spans_dropped"] = static_cast<double>(s.kernel().tracer().spans_dropped());
  }

 protected:
  [[nodiscard]] virtual harness::ScenarioConfig config(bool traced) const = 0;
  // Runs the workload on a fresh testbed and fills the pass's counts and
  // sim metrics.
  virtual void drive(harness::Scenario& scenario, Pass& pass) = 0;

  std::unique_ptr<harness::Scenario> scenario_;
  // Set by drive(): requests inside the window the network totals cover,
  // and client retransmissions.
  double window_requests_ = 0.0;
  std::uint64_t retransmissions_ = 0;
};

// The paper's base replicated path (Figs. 3/4): active replication, three
// replicas, closed-loop clients.
class RpcActive final : public ScenarioWorkload {
 public:
  RpcActive(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

 protected:
  harness::ScenarioConfig config(bool traced) const override {
    harness::ScenarioConfig c;
    c.seed = seed_;
    c.clients = 8;
    c.replicas = 3;
    c.style = replication::ReplicationStyle::kActive;
    c.tracing = traced;
    return c;
  }

  void drive(harness::Scenario& scenario, Pass& pass) override {
    harness::Scenario::CycleConfig cycle;
    cycle.requests_per_client = smoke_ ? 40 : 2830;
    cycle.warmup_requests = smoke_ ? 10 : 200;
    const harness::ExperimentResult r = scenario.run_closed_loop(cycle);
    const std::uint64_t planned = static_cast<std::uint64_t>(scenario.config().clients) *
                                  static_cast<std::uint64_t>(cycle.requests_per_client +
                                                             cycle.warmup_requests);
    pass.attempted = planned;
    pass.requests = r.completed;
    pass.failed = planned > r.completed ? planned - r.completed : 0;
    if (r.completed != planned) {
      pass.problems.push_back("completed " + std::to_string(r.completed) + " of " +
                              std::to_string(planned) + " planned requests");
    }
    window_requests_ = r.throughput_rps * r.duration_s;
    retransmissions_ = r.retransmissions;
    pass.sim.add("sim_latency_p50_us", "us", Clock::kSim, r.p50_latency_us);
    pass.sim.add("sim_latency_p99_us", "us", Clock::kSim, r.p99_latency_us);
    pass.sim.add("sim_bytes_per_request", "B", Clock::kSim,
                 ratio(r.bandwidth_mbps * 1e6, r.throughput_rps));
  }

 private:
  std::uint64_t seed_;
  bool smoke_;
};

// Fig. 6: warm passive with rate-threshold adaptation under an open-loop
// burst plan; the runtime style-switch protocol runs live.
class AdaptiveBurst final : public ScenarioWorkload {
 public:
  AdaptiveBurst(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  void attribute(Sheet& sheet, const Pass& traced, const Pass& untraced) override {
    ScenarioWorkload::attribute(sheet, traced, untraced);
    sheet["adaptive.switches"] = static_cast<double>(switches_.count);
    sheet["adaptive.switch_sim_us_max"] = switches_.max_duration_us;
    sheet["adaptive.active_share"] = active_share_;
  }

 protected:
  harness::ScenarioConfig config(bool traced) const override {
    harness::ScenarioConfig c;
    c.seed = seed_;
    c.clients = 2;
    c.replicas = 3;
    c.max_replicas = 3;
    c.style = replication::ReplicationStyle::kWarmPassive;
    c.enable_replicated_state = true;
    adaptive::RateThresholdPolicy::Config policy;
    policy.low_rate = 350;
    policy.high_rate = 600;
    c.adaptation = policy;
    c.tracing = traced;
    return c;
  }

  void drive(harness::Scenario& scenario, Pass& pass) override {
    const SimTime plateau = smoke_ ? msec(500) : sec(5);
    const int plateaus = 6;
    harness::Scenario::OpenLoopConfig open;
    open.plan = app::RatePlan::fig6_burst(250, 1100, plateau, plateaus);
    open.duration = plateau * plateaus;
    const harness::OpenLoopResult r = scenario.run_open_loop(open);
    // Requests the service executed (exactly once, so any caught-up
    // replica's counter); each must have been answered.
    const std::uint64_t executed = scenario.servant(0).counter();
    pass.requests = r.totals.completed;
    pass.attempted = std::max(executed, r.totals.completed);
    pass.failed = pass.attempted - r.totals.completed;
    if (pass.failed != 0) {
      pass.problems.push_back(std::to_string(pass.failed) +
                              " executed requests never answered");
    }
    if (const auto bad = adaptive::validate_switch_history(r.switches)) {
      pass.problems.push_back("switch history: " + *bad);
    }
    window_requests_ = static_cast<double>(r.totals.completed);
    retransmissions_ = r.totals.retransmissions;
    switches_ = adaptive::summarize_switches(r.switches);
    double active = 0.0;
    for (const auto& point : r.style_series.points()) active += point.value;
    active_share_ = ratio(active, static_cast<double>(r.style_series.points().size()));
    pass.sim.add("sim_latency_p50_us", "us", Clock::kSim, r.totals.p50_latency_us);
    pass.sim.add("sim_latency_p99_us", "us", Clock::kSim, r.totals.p99_latency_us);
    pass.sim.add("sim_bytes_per_request", "B", Clock::kSim,
                 ratio(r.totals.bandwidth_mbps * 1e6 * r.totals.duration_s,
                       static_cast<double>(r.totals.completed)));
  }

 private:
  std::uint64_t seed_;
  bool smoke_;
  adaptive::SwitchSummary switches_;
  double active_share_ = 0.0;
};

// --- kv_shard_fleet ------------------------------------------------------------

// Many fleet-paced clients routed over 16 warm-passive shards: checkpoint
// cost grows with the client count, writes run beside reads.
class KvShardFleet final : public Workload {
 public:
  KvShardFleet(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  double setup_sample() override {
    const auto start = WallClock::now();
    shard::ShardedCluster cluster(config(false));
    return seconds_since(start);
  }

  Pass run_pass(bool traced) override {
    Pass pass;
    cluster_.reset();
    const auto start = WallClock::now();
    cluster_ = std::make_unique<shard::ShardedCluster>(config(traced));
    pass.setup_s = seconds_since(start);

    shard::ShardedCluster::WorkloadConfig wc;
    wc.ops_per_client = 2;
    wc.put_ratio = 0.5;
    wc.append_ratio = 0.2;
    wc.key_space = 4096;
    wc.gap = sec(8);
    wc.stagger = msec(4);
    const auto run_start = WallClock::now();
    const double cpu_start = process_cpu_s();
    const auto r = cluster_->run_workload(wc);
    pass.run_s = seconds_since(run_start);
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.events = cluster_->kernel().events_executed();

    const std::uint64_t planned = static_cast<std::uint64_t>(cluster_->config().clients) *
                                  static_cast<std::uint64_t>(wc.ops_per_client);
    pass.attempted = planned;
    pass.requests = r.completed;
    pass.failed = planned > r.completed ? planned - r.completed : 0;
    pass.trials = 1;
    if (!r.all_done) pass.problems.push_back("workload did not finish every op");
    if (r.failed != 0) {
      pass.problems.push_back(std::to_string(r.failed) + " ops given up by the router");
    }

    cluster_->drain();
    for (const GroupId group : cluster_->data_groups()) {
      std::vector<std::uint64_t> digests;
      for (int node = 0; node < cluster_->replicas_in(group); ++node) {
        if (cluster_->replica_live(group, node)) {
          digests.push_back(cluster_->shard_servant(group, node).state_digest());
        }
      }
      if (digests.empty() ||
          std::adjacent_find(digests.begin(), digests.end(), std::not_equal_to<>()) !=
              digests.end()) {
        pass.problems.push_back("shard group " + std::to_string(group.value()) +
                                " replicas disagree after drain");
      }
    }

    const auto& traffic = cluster_->network().totals();
    pass.sim.add("sim_latency_p50_us", "us", Clock::kSim,
                 histogram_median(*cluster_->metrics().histogram("shard.latency_us")));
    pass.sim.add("sim_latency_p99_us", "us", Clock::kSim, r.p99_latency_us);
    pass.sim.add("sim_bytes_per_request", "B", Clock::kSim,
                 ratio(static_cast<double>(traffic.bytes), static_cast<double>(r.completed)));
    pass.total_s = seconds_since(start);
    if (!traced) cluster_.reset();
    return pass;
  }

  void attribute(Sheet& sheet, const Pass& traced, const Pass& untraced) override {
    shard::ShardedCluster& c = *cluster_;
    ReplicaTotals replicas;
    std::vector<GroupId> groups = c.data_groups();
    groups.push_back(c.directory_group());
    for (const GroupId group : groups) {
      for (int node = 0; node < c.replicas_in(group); ++node) {
        if (c.replica_live(group, node)) replicas.add(c.replicator(group, node));
      }
    }
    attribute_testbed(sheet, traced, untraced, c.network().totals(),
                      static_cast<double>(traced.requests), replicas,
                      calib::kDefaultRequestBytes, calib::kDefaultReplyBytes);
    std::uint64_t stale = 0;
    std::uint64_t refreshes = 0;
    for (int i = 0; i < c.config().clients; ++i) {
      stale += c.router(i).stale_rejections();
      refreshes += c.router(i).refreshes();
    }
    const auto requests = static_cast<double>(traced.requests);
    sheet["shard.stale_rejections_per_request"] = ratio(static_cast<double>(stale), requests);
    sheet["shard.refreshes_per_request"] = ratio(static_cast<double>(refreshes), requests);
    sheet["chaos.completed_ops_per_trial"] = requests;
    SpanSummary spans;
    accumulate(spans, rows_from_tracer(c.kernel().tracer()));
    attribute_spans(sheet, spans, requests, 1.0);
    sheet["obs.spans_dropped"] = static_cast<double>(c.kernel().tracer().spans_dropped());
  }

 private:
  shard::ShardedClusterConfig config(bool traced) const {
    shard::ShardedClusterConfig c;
    c.seed = seed_;
    c.shards = 16;
    c.default_policy.style =
        static_cast<std::uint8_t>(replication::ReplicationStyle::kWarmPassive);
    c.default_policy.replicas = 2;
    c.clients = smoke_ ? 40 : 4000;
    c.client_hosts = 8;
    c.server_hosts = 16;
    c.tracing = traced;
    return c;
  }

  std::uint64_t seed_;
  bool smoke_;
  std::unique_ptr<shard::ShardedCluster> cluster_;
};

// --- chaos_fleet -----------------------------------------------------------------

// The fault-tolerance axis: the default chaos sweep over every style, classic
// and sharded trials, the health plane on, run by the work-stealing fleet.
class ChaosFleet final : public Workload {
 public:
  ChaosFleet(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  // The fleet's set-up before its first simulated request: every trial's
  // derived config, and the testbeds of the first classic and the first
  // sharded trial. The worker pool's thread start-up is left out: it is
  // scheduler noise of the same order as the rest.
  double setup_sample() override {
    const chaos::CampaignConfig campaign = config(false, kWorkers);
    const auto start = WallClock::now();
    std::vector<chaos::TrialConfig> trials;
    trials.reserve(static_cast<std::size_t>(campaign.trials));
    for (int i = 0; i < campaign.trials; ++i) {
      trials.push_back(chaos::campaign_trial_config(campaign, i));
    }
    for (const auto& t : trials) {
      if (t.shards != 1) continue;
      harness::ScenarioConfig sc;
      sc.seed = t.seed;
      sc.clients = t.clients;
      sc.replicas = t.replicas;
      sc.max_replicas = t.replicas;
      sc.style = t.style;
      sc.health = t.health;
      sc.auto_recover = true;
      harness::Scenario scenario(sc);
      break;
    }
    for (const auto& t : trials) {
      if (t.shards == 1) continue;
      shard::ShardedClusterConfig cc;
      cc.seed = t.seed;
      cc.shards = t.shards;
      cc.default_policy.style = static_cast<std::uint8_t>(t.style);
      cc.default_policy.replicas = static_cast<std::uint8_t>(t.replicas);
      cc.clients = t.clients;
      cc.client_hosts = std::min(2, t.clients);
      cc.server_hosts = std::clamp(t.shards / 4 + 4, 4, 10);
      shard::ShardedCluster cluster(cc);
      break;
    }
    return seconds_since(start);
  }

  Pass run_pass(bool traced) override { return run_campaign_pass(traced, kWorkers); }

  void attribute(Sheet& sheet, const Pass& traced, const Pass& untraced) override {
    const auto trials = static_cast<double>(traced.trials);
    attribute_spans(sheet, spans_, static_cast<double>(traced.requests), trials);
    sheet["obs.spans_dropped"] = static_cast<double>(spans_dropped_);
    sheet["monitor.detection_p50_ms"] = percentile(detections_, 50);
    sheet["monitor.detection_missed"] = static_cast<double>(detection_missed_);
    sheet["monitor.health_events_per_trial"] =
        ratio(static_cast<double>(health_events_), trials);
    sheet["chaos.recovery_p50_ms"] = percentile(recoveries_, 50);
    sheet["chaos.completed_ops_per_trial"] = ratio(static_cast<double>(traced.requests), trials);
    sheet["adaptive.active_share"] = ratio(static_cast<double>(active_trials_), trials);
    // Fleet efficiency against a serial pass of the same campaign; the
    // driver thread helps run trials, so workers + 1 threads run them.
    const Pass serial = run_campaign_pass(false, 1);
    sheet["parallel.efficiency"] =
        ratio(ratio(static_cast<double>(untraced.trials), untraced.run_s),
              ratio(static_cast<double>(serial.trials), serial.run_s) * (kWorkers + 1));
    sheet["unattributed.host_us_per_request"] =
        ratio(untraced.run_s * 1e6, static_cast<double>(untraced.requests));
  }

 private:
  static constexpr int kWorkers = 2;

  chaos::CampaignConfig config(bool traced, int workers) const {
    chaos::CampaignConfig c;
    c.seed = seed_;
    c.trials = smoke_ ? 8 : 400;
    c.shard_counts = {1, 4};
    c.base.health = true;
    c.base.record_spans = traced;
    c.workers = workers;
    return c;
  }

  Pass run_campaign_pass(bool traced, int workers) {
    Pass pass;
    const chaos::CampaignConfig campaign = config(traced, workers);
    std::vector<double> latencies_us;
    std::vector<double> recoveries;
    std::vector<double> detections;
    std::uint64_t verdicts = 0;
    std::uint64_t failed = 0;
    spans_ = {};
    spans_dropped_ = 0;
    detection_missed_ = 0;
    health_events_ = 0;
    active_trials_ = 0;
    const auto start = WallClock::now();
    const double cpu_start = process_cpu_s();
    const chaos::CampaignResult result = chaos::run_campaign(
        campaign, [&](int, const chaos::TrialConfig& config, const chaos::TrialResult& trial) {
          ++verdicts;
          if (!trial.pass()) ++failed;
          pass.requests += trial.completed_ops;
          for (const auto& op : trial.observation.history) {
            if (op.completed_at) {
              latencies_us.push_back(
                  static_cast<double>((*op.completed_at - op.issued_at).count()) / 1000.0);
            }
          }
          if (!trial.plan.empty()) recoveries.push_back(trial.recovery_ms);
          for (const auto& rec : chaos::match_detections(trial.health_observation)) {
            if (rec.detected) {
              detections.push_back(rec.latency_ms);
            } else {
              ++detection_missed_;
            }
          }
          health_events_ += trial.health_observation.events.size();
          if (config.style == replication::ReplicationStyle::kActive ||
              config.style == replication::ReplicationStyle::kSemiActive) {
            ++active_trials_;
          }
          if (traced) {
            accumulate(spans_, rows_from_chrome_trace(trial.flight_recording));
            spans_dropped_ += trial.spans_dropped;
          }
        });
    pass.run_s = seconds_since(start);
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.total_s = pass.run_s;
    pass.trials = static_cast<std::uint64_t>(result.trials);
    pass.attempted = static_cast<std::uint64_t>(campaign.trials);
    pass.failed = failed;
    if (verdicts != pass.attempted || pass.trials != pass.attempted) {
      pass.problems.push_back("recorded " + std::to_string(verdicts) + " verdicts for " +
                              std::to_string(pass.attempted) + " trials");
      pass.failed = std::max(pass.failed, pass.attempted - std::min(verdicts, pass.attempted));
    }
    // Each failing trial is reproducible from the campaign seed and its index.
    for (const auto& f : result.failures) {
      pass.problems.push_back(
          "trial " + std::to_string(f.trial_index) + " (" +
          replication::style_code(f.config.style) + ", " + std::to_string(f.config.replicas) +
          " replicas, " + std::to_string(f.config.shards) + " shard(s)) failed: " +
          (f.failures.empty() ? std::string("?") : f.failures.front()));
    }
    recoveries_ = recoveries;
    detections_ = detections;
    pass.sim.add("sim_latency_p50_us", "us", Clock::kSim, percentile(latencies_us, 50));
    pass.sim.add("sim_latency_p99_us", "us", Clock::kSim, percentile(latencies_us, 99));
    pass.sim.add("sim_recovery_p99_ms", "ms", Clock::kSim, percentile(recoveries, 99));
    pass.sim.add("sim_detection_p99_ms", "ms", Clock::kSim, percentile(detections, 99));
    return pass;
  }

  std::uint64_t seed_;
  bool smoke_;
  // Gathered by the last campaign pass.
  SpanSummary spans_;
  std::uint64_t spans_dropped_ = 0;
  std::vector<double> recoveries_;
  std::vector<double> detections_;
  std::uint64_t detection_missed_ = 0;
  std::uint64_t health_events_ = 0;
  std::uint64_t active_trials_ = 0;
};

std::unique_ptr<Workload> make_workload(std::string_view name, const RunOptions& options) {
  if (name == "rpc_active") return std::make_unique<RpcActive>(options.seed, options.smoke);
  if (name == "kv_shard_fleet") {
    return std::make_unique<KvShardFleet>(options.seed, options.smoke);
  }
  if (name == "adaptive_burst") {
    return std::make_unique<AdaptiveBurst>(options.seed, options.smoke);
  }
  if (name == "chaos_fleet") return std::make_unique<ChaosFleet>(options.seed, options.smoke);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

// Sim-clock end-to-end metrics of a pass, each in its declared slot (absent
// ones read 0 and are left out of the table).
void add_sim_metrics(Result& out, const Pass& pass) {
  for (const auto& spec : kEndToEnd) {
    if (spec.clock != Clock::kSim) continue;
    if (const Metric* m = pass.sim.find(spec.name)) out.metrics.push_back(*m);
  }
}

// Folds each pass's checks into the result; a pass whose sim results differ
// from the first pass's fails the determinism witness and counts all its
// attempts as failed.
void judge_passes(Result& out, const std::vector<Pass>& passes) {
  const std::uint64_t reference = digest_of(passes.front().sim.metrics);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    out.attempted += p.attempted;
    std::uint64_t failed = p.failed;
    for (const auto& problem : p.problems) {
      out.problems.push_back("pass " + std::to_string(i + 1) + ": " + problem);
    }
    if (digest_of(p.sim.metrics) != reference) {
      out.problems.push_back("pass " + std::to_string(i + 1) +
                             ": sim results differ from pass 1 with the same seed");
      failed = p.attempted;
    }
    out.failed += failed;
  }
}

Result end_to_end(Workload& workload, std::string_view name, const RunOptions& options) {
  Result out;
  out.workload = std::string(name);
  out.seed = options.seed;

  // Set-up is cheap next to a pass, so it gets its own sample budget.
  std::vector<double> setup;
  const auto setup_start = WallClock::now();
  while (setup.size() < 5 ||
         (setup.size() < 200 && seconds_since(setup_start) < 0.5 && !options.smoke)) {
    setup.push_back(workload.setup_sample());
  }

  std::vector<Pass> passes;
  const auto start = WallClock::now();
  do {
    passes.push_back(workload.run_pass(false));
    if (passes.back().setup_s > 0.0) setup.push_back(passes.back().setup_s);
  } while (!options.smoke && seconds_since(start) < options.seconds);

  std::vector<double> request_rates;
  std::vector<double> trial_rates;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    request_rates.push_back(ratio(static_cast<double>(p.requests), p.run_s));
    trial_rates.push_back(ratio(static_cast<double>(p.trials), p.total_s));
    char line[160];
    std::snprintf(line, sizeof line,
                  "pass %2zu: setup %.6f s, run %.4f s wall / %.4f s cpu, %.1f requests/s",
                  i + 1, p.setup_s, p.run_s, p.cpu_s, request_rates.back());
    out.notes.emplace_back(line);
  }
  judge_passes(out, passes);
  out.add("requests_per_s", "1/s", Clock::kHost, median(request_rates));
  out.add("trials_per_s", "1/s", Clock::kHost, median(trial_rates));
  out.add("setup_s", "s", Clock::kHost, median(setup));
  out.add("peak_rss_mb", "MB", Clock::kHost, peak_rss_mb());
  add_sim_metrics(out, passes.front());
  out.add("fail_ratio", "ratio", Clock::kNone,
          ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  out.add("passes", "count", Clock::kHost, static_cast<double>(passes.size()));
  out.digest = digest_of(out.metrics);
  return out;
}

Result traced(Workload& workload, std::string_view name, const RunOptions& options) {
  Result out;
  out.workload = std::string(name);
  out.seed = options.seed;
  out.traced = true;

  // The first pass warms caches and the allocator; the second is the
  // untraced baseline the traced pass is compared with.
  std::vector<Pass> passes;
  passes.push_back(workload.run_pass(false));
  passes.push_back(workload.run_pass(false));
  passes.push_back(workload.run_pass(true));
  const Pass& untraced_pass = passes[1];
  const Pass& traced_pass = passes[2];
  judge_passes(out, passes);

  Sheet sheet;
  for (const auto& spec : kPerLayer) sheet[spec.name] = 0.0;
  workload.attribute(sheet, traced_pass, untraced_pass);
  sheet["obs.tracing_overhead"] = ratio(traced_pass.run_s, untraced_pass.run_s);
  if (sheet["obs.spans_dropped"] != 0.0) {
    out.problems.push_back("tracer dropped spans: the traced run is void");
  }
  for (const auto& spec : kPerLayer) {
    out.add(spec.name, spec.unit, spec.clock, sheet[spec.name]);
  }
  const char* largest = kHostAttributions[0];
  for (const char* name : kHostAttributions) {
    if (sheet[name] > sheet[largest]) largest = name;
  }
  out.notes = std::move(sheet.notes);
  out.notes.push_back(sheet[largest] > 0.0
                          ? "largest attributed host cost: " + std::string(largest) + " = " +
                                std::to_string(sheet[largest]) + " us/request"
                          : std::string("no host probes: the testbeds are internal to the run"));
  add_sim_metrics(out, traced_pass);
  out.digest = digest_of(out.metrics);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rpc_active", "kv_shard_fleet",
                                                 "adaptive_burst", "chaos_fleet"};
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kJsonEndToEnd; ++i) out.emplace_back(kEndToEnd[i].name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& spec : kPerLayer) out.emplace_back(spec.name);
    return out;
  }();
  return names;
}

Result run_workload(std::string_view name, const RunOptions& options) {
  const std::unique_ptr<Workload> workload = make_workload(name, options);
  return options.trace ? traced(*workload, name, options)
                       : end_to_end(*workload, name, options);
}

}  // namespace perfbench
