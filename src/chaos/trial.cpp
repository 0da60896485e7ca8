// The chaos trial runner: one run of recorded clients against a replicated
// testbed under a fault plan, judged by the oracles.
//
// drive() does every step once — build the testbed, choose the plan, arm it,
// start the recorded clients, run to the deadline, settle, gather the
// observation, compute recovery time and attach spans. The two testbeds
// supply only what differs between them:
//
//   - how the testbed is built (a single-group harness::Scenario, or a
//     shard::ShardedCluster with its online splits scheduled);
//   - how a schedule is generated for it (generate_schedule/make_shard_plan);
//   - how a recorded client sends an op, and its start offset and key space;
//   - how the run settles, which replica state is collected and which
//     oracles judge it.
#include "chaos/campaign.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "app/kv_store.hpp"
#include "chaos/history.hpp"
#include "harness/scenario.hpp"
#include "obs/export.hpp"
#include "shard/cluster.hpp"
#include "util/assert.hpp"

namespace vdep::chaos {

namespace {

// One replicated KV group on a harness::Scenario, judged by the four
// classic oracles plus, with the health plane on, the detection oracle.
class ClassicTestbed {
 public:
  explicit ClassicTestbed(const TrialConfig& config)
      : config_(config), incarnations_(static_cast<std::size_t>(config.replicas), 0) {
    if (config.record_trace) trace_.enable();
    harness::ScenarioConfig sc;
    sc.seed = config.seed;
    sc.clients = config.clients;
    sc.replicas = config.replicas;
    sc.max_replicas = config.replicas;
    sc.style = config.style;
    sc.checkpoint_interval = config.checkpoint_interval;
    sc.checkpoint_every_requests = config.checkpoint_every_requests;
    sc.checkpoint_anchor_interval = config.checkpoint_anchor_interval;
    sc.auto_recover = true;
    sc.skip_reply_dedup = config.inject_dedup_bug;
    sc.tracing = config.record_spans;
    sc.health = config.health;
    sc.make_servant = [this](int index) {
      auto servant = std::make_unique<app::KvStoreServant>();
      servant->set_on_apply([this, index](const std::string& op, const std::string& key) {
        if (trace_.enabled() && kernel_ != nullptr) {
          trace_.add(kernel_->now(), "replica" + std::to_string(index),
                     "apply " + op + " " + key);
        }
      });
      return servant;
    };
    sc.on_replicator_created = [this](int index, replication::Replicator& rep) {
      const std::uint64_t incarnation = incarnations_[static_cast<std::size_t>(index)]++;
      rep.set_on_checkpoint([this, index, incarnation](std::uint64_t id) {
        checkpoints_.push_back({index, incarnation, id});
        if (trace_.enabled() && kernel_ != nullptr) {
          trace_.add(kernel_->now(), "replica" + std::to_string(index),
                     "checkpoint " + std::to_string(id));
        }
      });
    };
    scenario_ = std::make_unique<harness::Scenario>(sc);
    kernel_ = &scenario_->kernel();
  }

  sim::Kernel& kernel() { return *kernel_; }

  net::FaultPlan generate(Rng& rng) {
    return generate_schedule(rng, config_.faults, *scenario_);
  }

  void arm(const net::FaultPlan& plan) {
    scenario_->fault_plan() = plan;
    if (trace_.enabled()) {
      for (const auto& a : plan.actions()) trace_.add(a.at, "faultplan", a.to_string());
    }
    scenario_->arm_faults();
  }

  // Client c runs as its own process on client host c, with its own ORB and
  // ClientCoordinator, and keeps to its own keys.
  std::unique_ptr<WorkloadClient> client(int c, WorkloadClient::Config wc, Rng rng) {
    auto& endpoint =
        scenario_->add_client(ProcessId{7000 + static_cast<std::uint64_t>(c)},
                              scenario_->client_host(c), "chaos-client" + std::to_string(c));
    wc.start_at = msec(250);
    wc.stagger = usec(125);
    wc.key_prefix = "kv:c" + std::to_string(c) + ":";
    wc.key_space = 8;
    auto send = [this, &orb = endpoint.orb](const OpRecord& op, const std::string& value,
                                            WorkloadClient::Done done) {
      Bytes args = op.op == "append" ? app::KvStoreServant::encode_append(op.key, value)
                   : op.op == "put"  ? app::KvStoreServant::encode_put(op.key, value)
                                     : app::KvStoreServant::encode_key(op.key);
      orb.invoke(scenario_->object_ref(), op.op, std::move(args),
                 [this, issued_at = op.issued_at, done = std::move(done)](
                     orb::ReplyStatus status, Bytes /*body*/) {
                   const bool ok = status == orb::ReplyStatus::kNoException;
                   if (scenario_->health_enabled()) {
                     auto& metrics = scenario_->metrics();
                     metrics.observe("service.latency_us", to_usec(kernel_->now() - issued_at));
                     metrics.add("service.requests");
                     if (!ok) metrics.add("service.failures");
                   }
                   done(ok);
                 });
    };
    return std::make_unique<WorkloadClient>(endpoint.process, std::move(wc), rng,
                                            std::move(send),
                                            trace_.enabled() ? &trace_ : nullptr);
  }

  [[nodiscard]] SimTime busy_until() const { return kTimeZero; }

  void settle() {
    if (config_.health) {
      // The detection oracle judges every scheduled fault, so each one must
      // actually strike while the health plane is watching: when the
      // workload finishes early, keep the simulation alive through the last
      // fault effect plus the detection bound instead of stopping with late
      // faults still pending.
      kernel_->run_until(scenario_->fault_plan().last_effect_end() +
                         config_.detection_bound + msec(200));
    }
    scenario_->drain(msec(500));  // let replies, checkpoints and joins settle
  }

  void judge(TrialObservation& obs, TrialResult& result) {
    const net::FaultPlan& plan = scenario_->fault_plan();
    obs.expected_lost = permanently_lost(plan);
    obs.checkpoints = checkpoints_;
    for (int r = 0; r < config_.replicas; ++r) {
      TrialObservation::ReplicaState rs;
      rs.index = r;
      auto& rep = scenario_->replicator(r);
      rs.live = scenario_->replica_process(r).alive() && !rep.stopped();
      rs.initialized = rep.initialized();
      rs.responder = rs.live && rep.is_responder();
      if (const auto& view = rep.current_view()) {
        rs.view_id = view->view_id;
        for (const auto& member : view->members) rs.view_members.push_back(member.process);
      }
      auto* kv = dynamic_cast<app::KvStoreServant*>(&scenario_->app(r));
      VDEP_ASSERT_MSG(kv != nullptr, "chaos trials replicate the KV store");
      for (int c = 0; c < config_.clients; ++c) {
        const std::string key = client_log_key(c);
        if (auto value = kv->lookup(key)) rs.logs[key] = *value;
      }
      obs.replicas.push_back(std::move(rs));
    }

    result.verdict = check_all(obs);
    if (config_.health) {
      HealthObservation hobs;
      hobs.enabled = true;
      hobs.fault_free = plan.empty();
      hobs.detection_bound = config_.detection_bound;
      hobs.events = scenario_->health().events();
      hobs.faults = plan.actions();
      result.verdict.merge(check_detection(hobs));
      result.health_observation = std::move(hobs);
    }
    if (trace_.enabled()) {
      const std::string rendered = trace_.render();
      result.trace_digest = fnv1a(
          {reinterpret_cast<const std::uint8_t*>(rendered.data()), rendered.size()});
    }
  }

 private:
  // Replica indexes the schedule removes for good: node kills, and crashed
  // processes whose restart was dropped (by the shrinker).
  std::set<int> permanently_lost(const net::FaultPlan& plan) const {
    std::set<int> lost;
    for (int r = 0; r < config_.replicas; ++r) {
      const NodeId host = scenario_->replica_host(r);
      const ProcessId pid = scenario_->replica_pid(r);
      bool down = false;
      for (const auto& a : plan.actions()) {  // actions are in schedule order
        using Kind = net::FaultAction::Kind;
        if (a.kind == Kind::kCrashNode && a.node == host) down = true;
        // Host back up, but its processes stay dead.
        if (a.kind == Kind::kRestoreNode && a.node == host) down = false;
        if (a.kind == Kind::kCrashProcess && a.pid == pid) down = true;
        if (a.kind == Kind::kRestartProcess && a.pid == pid) down = false;
      }
      if (down) lost.insert(r);
    }
    return lost;
  }

  const TrialConfig& config_;
  sim::TraceRecorder trace_;
  std::vector<TrialObservation::CheckpointEvent> checkpoints_;
  std::vector<std::uint64_t> incarnations_;  // per replica, bumped per rebuild
  std::unique_ptr<harness::Scenario> scenario_;
  sim::Kernel* kernel_ = nullptr;
};

// A shard::ShardedCluster (replicated directory, one replica group per
// shard, routed clients) that performs `splits` online shard splits while
// the clients run. Judged by the shard oracles — ownership and migration
// integrity — plus bounded recovery.
class ShardTestbed {
 public:
  explicit ShardTestbed(const TrialConfig& config)
      : config_(config), split_rng_(Rng(config.seed).fork(0x59117)) {
    VDEP_ASSERT(config.shards > 1);
    shard::ShardedClusterConfig cc;
    cc.seed = config.seed;
    cc.shards = config.shards;
    cc.default_policy.style = static_cast<std::uint8_t>(config.style);
    cc.default_policy.replicas = static_cast<std::uint8_t>(config.replicas);
    cc.default_policy.checkpoint_every_requests = config.checkpoint_every_requests;
    cc.default_policy.checkpoint_anchor_interval = config.checkpoint_anchor_interval;
    cc.checkpoint_interval = config.checkpoint_interval;
    cc.clients = config.clients;
    cc.client_hosts = std::min(2, config.clients);
    cc.server_hosts = std::clamp(config.shards / 4 + 4, 4, 10);
    cc.tracing = config.record_spans;
    cluster_ = std::make_unique<shard::ShardedCluster>(cc);

    for (int j = 0; j < config.splits; ++j) {
      split_times_.push_back(msec(600) + msec(900) * j);
      cluster_->kernel().post_at(split_times_.back(), [this, j] { split(j); });
    }
  }

  sim::Kernel& kernel() { return cluster_->kernel(); }

  net::FaultPlan generate(Rng& rng) {
    return make_shard_plan(rng, config_.faults, *cluster_, split_times_);
  }

  void arm(const net::FaultPlan& plan) {
    cluster_->fault_plan() = plan;
    cluster_->arm_faults();
  }

  // Client c sends through its router, over a key space that straddles
  // shards.
  std::unique_ptr<WorkloadClient> client(int c, WorkloadClient::Config wc, Rng rng) {
    wc.start_at = msec(300);
    wc.stagger = usec(137);
    wc.key_prefix = "k";
    wc.key_space = 64;
    auto send = [this, c](const OpRecord& op, const std::string& value,
                          WorkloadClient::Done done) {
      auto reply = [done = std::move(done)](shard::ShardStatus status, const Bytes&) {
        done(status == shard::ShardStatus::kOk);
      };
      auto& router = cluster_->router(c);
      if (op.op == "append") {
        router.append(op.key, value, reply);
      } else if (op.op == "put") {
        router.put(op.key, value, reply);
      } else {
        router.get(op.key, reply);
      }
    };
    return std::make_unique<WorkloadClient>(cluster_->client(c).process,
                                            std::move(wc), rng, std::move(send), nullptr);
  }

  [[nodiscard]] SimTime busy_until() const {
    return (split_times_.empty() ? kTimeZero : split_times_.back()) + sec(6);
  }

  void settle() {
    // Let in-flight migrations finish (they are bounded by step retries),
    // then settle replies and joins.
    for (int i = 0; i < 20 && !cluster_->migration().idle(); ++i) cluster_->drain(msec(500));
    cluster_->drain(msec(500));
  }

  void judge(TrialObservation& obs, TrialResult& result) {
    ShardObservation sobs;
    sobs.initial_epoch = cluster_->initial_map().epoch();
    sobs.final_map = cluster_->directory_map();
    for (const auto& rec : cluster_->migration().history()) {
      ++sobs.migrations_attempted;
      if (rec.success) {
        ++sobs.migrations_committed;
        sobs.committed_maps.push_back(rec.committed_map);
      }
    }
    if (!cluster_->migration().idle()) ++sobs.migrations_attempted;  // stuck job

    int pseudo_index = 0;
    for (GroupId g : cluster_->data_groups()) {
      ShardObservation::GroupState gs;
      gs.group = g;
      // Read the state off the group's responder (first live initialized
      // replica as fallback) — the replica that would answer clients.
      int chosen = -1;
      for (int n = 0; n < cluster_->replicas_in(g); ++n) {
        if (!cluster_->replica_live(g, n)) continue;
        if (!cluster_->replicator(g, n).initialized()) continue;
        if (chosen < 0) chosen = n;
        if (cluster_->replicator(g, n).is_responder()) {
          chosen = n;
          break;
        }
      }
      if (chosen >= 0) {
        gs.any_live = true;
        const auto& servant = cluster_->shard_servant(g, chosen);
        gs.frozen = servant.frozen();
        gs.owned = servant.owned_ranges();
        for (int c = 0; c < config_.clients; ++c) {
          const std::string key = client_log_key(c);
          if (auto value = servant.store().lookup(key)) gs.logs[key] = *value;
        }
        for (const auto& [key, value] : servant.store().items()) gs.keys.insert(key);
      }
      sobs.groups.push_back(std::move(gs));

      TrialObservation::ReplicaState rs;
      rs.index = pseudo_index++;
      rs.live = sobs.groups.back().any_live;
      rs.initialized = true;
      rs.responder = rs.live;
      obs.replicas.push_back(std::move(rs));
    }

    result.verdict = check_shard_ownership(sobs);
    result.verdict.merge(check_shard_migration_integrity(obs, sobs));
    result.verdict.merge(check_bounded_recovery(obs));
    result.shard_observation = std::move(sobs);
  }

 private:
  // Split j. The first split point is the hash of client 0's log key: that
  // key's sub-range moves while client 0 is mid-traffic on it — the
  // split-during-in-flight-retry edge the router must survive. Later splits
  // cut a random splittable shard mid-range.
  void split(int j) {
    const shard::ShardMap& map = cluster_->directory_map();
    const auto& entries = map.entries();
    const shard::ShardEntry* picked = nullptr;
    std::uint32_t point = 0;
    if (j == 0) {
      const std::uint32_t h = shard::shard_hash(client_log_key(0));
      const shard::ShardEntry* entry = map.lookup(h);
      if (entry != nullptr && entry->range.lo < entry->range.hi) {
        picked = entry;
        point = std::max(h, entry->range.lo + 1);
      }
    }
    if (picked == nullptr) {
      for (std::size_t tries = 0; tries < entries.size(); ++tries) {
        const auto& e = entries[split_rng_.below(entries.size())];
        if (e.range.lo < e.range.hi) {
          picked = &e;
          point = e.range.lo + static_cast<std::uint32_t>(e.range.width() / 2);
          if (point == e.range.lo) ++point;
          break;
        }
      }
    }
    if (picked == nullptr) return;  // nothing splittable (degenerate map)
    cluster_->split_shard(picked->shard, point, cluster_->config().default_policy);
  }

  const TrialConfig& config_;
  Rng split_rng_;
  std::unique_ptr<shard::ShardedCluster> cluster_;
  std::vector<SimTime> split_times_;
};

// Runs one trial on `Testbed`: `plan` when given, else a schedule generated
// from the trial seed.
template <typename Testbed>
TrialResult drive(const TrialConfig& config, const net::FaultPlan* plan) {
  Testbed bed(config);
  // A generated schedule derives from the trial seed through its own
  // stream, fully decoupled from the simulation's randomness.
  Rng plan_rng = Rng(config.seed).fork(0xfa017);
  const net::FaultPlan active_plan = plan != nullptr ? *plan : bed.generate(plan_rng);
  bed.arm(active_plan);

  std::vector<std::unique_ptr<WorkloadClient>> clients;
  int remaining = config.clients;
  for (int c = 0; c < config.clients; ++c) {
    WorkloadClient::Config wc;
    wc.index = c;
    wc.ops = config.ops_per_client;
    wc.gap = config.op_gap;
    wc.append_ratio = config.append_ratio;
    auto client =
        bed.client(c, std::move(wc), Rng(config.seed).fork(0xc1a0 + static_cast<std::uint64_t>(c)));
    client->on_done = [&bed, &remaining] {
      if (--remaining == 0) bed.kernel().stop();
    };
    client->start();
    clients.push_back(std::move(client));
  }

  const SimTime deadline =
      std::max({config.hard_deadline, bed.busy_until(),
                active_plan.last_effect_end() + config.recovery_bound + sec(2)});
  bed.kernel().run_until(deadline);
  const bool all_done = remaining == 0;
  bed.settle();

  TrialResult result;
  result.plan = active_plan;
  result.last_fault_end = active_plan.last_effect_end();

  TrialObservation obs;
  obs.recovery_bound = config.recovery_bound;
  obs.all_clients_done = all_done;
  SimTime finished = all_done ? kTimeZero : deadline;
  for (const auto& client : clients) {
    const auto& h = client->history();
    obs.history.insert(obs.history.end(), h.begin(), h.end());
    result.completed_ops += static_cast<std::uint64_t>(client->completed());
    finished = std::max(finished, client->last_completed_at());
  }
  obs.finished_at = finished;
  obs.last_fault_end = result.last_fault_end;
  bed.judge(obs, result);

  result.finished_at = finished;
  result.recovery_ms =
      finished > result.last_fault_end ? to_usec(finished - result.last_fault_end) / 1000.0
                                       : 0.0;
  if (config.record_spans) {
    const obs::Tracer& tracer = bed.kernel().tracer();
    result.spans_recorded = tracer.spans_recorded();
    result.spans_dropped = tracer.spans_dropped();
    result.flight_recording = obs::to_chrome_trace(tracer);
  }
  result.observation = std::move(obs);
  return result;
}

TrialResult run(const TrialConfig& config, const net::FaultPlan* plan) {
  return config.shards > 1 ? drive<ShardTestbed>(config, plan)
                           : drive<ClassicTestbed>(config, plan);
}

}  // namespace

TrialResult run_trial(const TrialConfig& config) { return run(config, nullptr); }

TrialResult run_trial(const TrialConfig& config, const net::FaultPlan& plan) {
  return run(config, &plan);
}

}  // namespace vdep::chaos
