// Delta-debugging shrinker for failing fault schedules.
//
// Given a trial configuration and a schedule whose run fails an oracle, the
// shrinker searches for a smaller schedule that still fails: first classic
// ddmin over the action list (dropping complements of ever-finer chunks),
// then per-action retiming (snapping strike/lift times to a coarse grid and
// pulling them earlier). Every probe is a full deterministic trial, so the
// result is an honest minimal reproducer, printable via FaultPlan::to_string
// and replayable with run_trial(config, minimal) on either testbed. Before
// ddmin, the empty schedule is probed as a degenerate witness: that probe
// really runs with no faults, so a failure that needs no fault at all
// shrinks to the empty plan, and any other failure keeps its trigger.
//
// With a StealPool, each ddmin round evaluates all of its candidate plans as
// parallel trials (each probe is an independent kernel) and commits the
// lowest-indexed failing candidate — the same candidate the serial scan
// would have taken, so the minimal schedule is identical; only the probe
// count differs (the parallel round finishes candidates the serial scan
// would have skipped past). The sequential retiming phase stays serial.
#pragma once

#include <functional>

#include "chaos/campaign.hpp"
#include "sim/parallel/steal_pool.hpp"

namespace vdep::chaos {

// Decides whether a probe still exhibits the failure being minimized. The
// default predicate accepts any oracle failure.
using FailPredicate = std::function<bool(const TrialResult&)>;

struct ShrinkResult {
  net::FaultPlan minimal;
  TrialResult reproduction;  // the (failing) run of `minimal`
  int probes = 0;            // trials executed while shrinking
};

[[nodiscard]] ShrinkResult shrink_schedule(const TrialConfig& config,
                                           const net::FaultPlan& failing,
                                           const FailPredicate& still_fails = {},
                                           sim::parallel::StealPool* pool = nullptr);

}  // namespace vdep::chaos
