// Seeded fault-schedule generation for chaos campaigns.
//
// Draws a random net::FaultPlan from a fault budget (how many actions of
// each family) against a scenario's topology. The generator is constrained
// so that, absent a real bug, every schedule is *survivable by design*:
//
//  - Crash/restart pairs target replica processes only, one at a time, so
//    at least one replica is always up; the harness's auto-recovery rejoins
//    the restarted replica with a state transfer.
//  - Node kills are permanent losses, capped below the replica count so the
//    group always retains a serving member.
//  - Loss bursts and partitions are kept shorter than the failure
//    detector's expulsion threshold (500 ms of silence) and separated by
//    quiet gaps, so heartbeats deterministically prevent false suspicion —
//    transient faults stay transient.
//  - Slow-host windows are performance faults; they may overlap anything.
//
// Clients (and their hosts, which carry the group-communication leader) are
// never faulted: the paper's fault model targets the replicated server side.
//
// make_shard_plan is the sharded-cluster counterpart: it draws the same
// budget into the online-split windows instead of spacing it out.
#pragma once

#include <vector>

#include "net/fault_plan.hpp"
#include "util/rng.hpp"

namespace vdep::harness {
class Scenario;
}
namespace vdep::shard {
class ShardedCluster;
}

namespace vdep::chaos {

// Fault budget and timing envelope for one generated schedule.
struct SchedulePolicy {
  int crash_recoveries = 1;  // crash+restart pairs on replica processes
  int node_kills = 0;        // permanent replica-host losses
  int loss_bursts = 2;
  int partitions = 1;
  int slow_hosts = 1;

  SimTime window_start = msec(300);  // first fault strikes at/after this
  SimTime min_window = msec(100);    // windowed fault duration bounds
  SimTime max_window = msec(400);    // < detector threshold (500 ms)
  SimTime min_gap = msec(200);       // quiet gap between silencing faults
  SimTime min_down = msec(150);      // crash -> restart delay bounds
  SimTime max_down = msec(400);

  double min_loss = 0.4;  // loss-burst probability bounds
  double max_loss = 1.0;
  double min_slow = 2.0;  // slow-host factor bounds
  double max_slow = 8.0;

  [[nodiscard]] int total_actions() const {
    return crash_recoveries + node_kills + loss_bursts + partitions + slow_hosts;
  }
};

// Generates a schedule for `scenario`'s topology. Deterministic in (rng
// state, policy, topology). The same rng must not be shared with the
// simulation kernel, or the schedule would perturb the run it scripts.
[[nodiscard]] net::FaultPlan generate_schedule(Rng& rng, const SchedulePolicy& policy,
                                               const harness::Scenario& scenario);

// Generates a schedule for a sharded cluster whose splits start at
// `split_times`: crashes strike while a range is frozen, donated or being
// installed; partitions and loss bursts silence server hosts mid-migration
// (each window < the 500 ms detector threshold); slow hosts stretch the
// window. Clients, their hosts (which carry the GCS leader) and the
// migration controller are never faulted. Deterministic in (rng state,
// policy, topology, split times).
[[nodiscard]] net::FaultPlan make_shard_plan(Rng& rng, const SchedulePolicy& policy,
                                             shard::ShardedCluster& cluster,
                                             const std::vector<SimTime>& split_times);

}  // namespace vdep::chaos
