// Long-running mission with operating modes and behavioral contracts
// (paper Secs. 3.1 and 5: applications "that cannot be stopped (e.g., during
// a space flight), but that have several modes of operation").
//
// A spacecraft data service alternates between cruise (resource-frugal) and
// encounter (high-performance) modes, driven by a ModePolicy rather than
// measurements. A behavioral contract bounds latency; when the encounter
// workload pushes the passive configuration past the bound, the contract
// monitor degrades to the pre-declared fallback contract and the operator is
// notified — the paper's renegotiation story.
//
// Run:  ./mission_modes [seed=42]
#include <cstdio>

#include "adaptive/contract.hpp"
#include "harness/scenario.hpp"
#include "knobs/availability.hpp"
#include "util/config.hpp"

using namespace vdep;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);

  harness::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  harness::Scenario scenario(config);

  // Mission plan: cruise 0-4 s (light telemetry), encounter 4-8 s (heavy
  // instrument data), cruise again 8-12 s.
  harness::Scenario::OpenLoopConfig open;
  open.plan = app::RatePlan({{kTimeZero, 150.0}, {sec(4), 900.0}, {sec(8), 150.0}});
  open.duration = sec(12);

  // Mode schedule: ground control flips the mode knob one second *after* the
  // instruments ramp up (command-loop lag) — long enough for the nominal
  // contract to be violated and renegotiated while still in passive mode.
  scenario.kernel().post_at(sec(5), [&] {
    std::printf("[t=5.0s] MODE: encounter — switching to active replication\n");
    scenario.group().set_style(replication::ReplicationStyle::kActive);
  });
  scenario.kernel().post_at(sec(8), [&] {
    std::printf("[t=8.0s] MODE: cruise — switching back to warm passive\n");
    scenario.group().set_style(replication::ReplicationStyle::kWarmPassive);
  });

  // Behavioral contract: cruise promises 5 ms; if that cannot be honoured,
  // fall back to a degraded 15 ms contract before waking the operator.
  adaptive::Contract nominal;
  nominal.name = "nominal (5 ms)";
  nominal.max_latency_us = 5000;
  nominal.max_bandwidth_mbps = 4.0;
  adaptive::Contract degraded;
  degraded.name = "degraded (15 ms)";
  degraded.max_latency_us = 15000;
  degraded.max_bandwidth_mbps = 4.0;

  adaptive::ContractMonitor monitor(nominal, msec(250));
  monitor.add_degraded_alternative(degraded);
  monitor.set_on_degrade([&](const adaptive::Contract& from,
                             const adaptive::Contract& to) {
    std::printf("[t=%.1fs] CONTRACT: '%s' can no longer be honoured; offering "
                "degraded contract '%s'\n",
                to_sec(scenario.kernel().now()), from.name.c_str(), to.name.c_str());
  });
  monitor.set_on_exhausted([&](const adaptive::Contract& last) {
    std::printf("[t=%.1fs] CONTRACT: even '%s' failed — operator intervention "
                "required\n",
                to_sec(scenario.kernel().now()), last.name.c_str());
  });

  // Feed the contract monitor from a live latency probe. (Replicas boot a
  // few milliseconds into the run, so the head replicator is looked up
  // lazily inside the probe.)
  Ewma latency_probe(0.5);
  std::function<void()> probe = [&] {
    if (scenario.kernel().now() > sec(12)) return;
    auto& head = scenario.replicator(0);
    // Smoothed service-side latency estimate from the observed rate and the
    // current style: passive pays checkpoint quiescence plus queueing that
    // grows with load; active starts lower and grows gently.
    const double rate = head.observed_request_rate();
    const bool passive =
        head.style() == replication::ReplicationStyle::kWarmPassive ||
        head.style() == replication::ReplicationStyle::kColdPassive;
    latency_probe.add(passive ? 2600.0 + 6.0 * rate : 1300.0 + 1.2 * rate);
    (void)monitor.observe(scenario.kernel().now(), latency_probe.value(), 1.0, 2);
    scenario.kernel().post(msec(200), probe);
  };
  scenario.kernel().post_at(msec(400), probe);

  const harness::OpenLoopResult result = scenario.run_open_loop(open);

  std::printf("\nmission complete: %llu requests served, mean RTT %.0f us, "
              "%zu style switches, contract degradations: %zu\n",
              static_cast<unsigned long long>(result.totals.completed),
              result.totals.avg_latency_us, result.switches.size(),
              monitor.degradations());

  // Planning aid: what the availability knob would provision for the next
  // mission phase under this fault model.
  knobs::AvailabilityModel model;
  model.mttf = sec(3600);
  model.mttr = sec(120);
  for (double target : {0.99, 0.999, 0.9999}) {
    auto choice = knobs::choose_for_availability(target, model);
    if (choice) {
      std::printf("availability >= %.4f  ->  %s (predicted %.5f)\n", target,
                  choice->config.code().c_str(), choice->availability);
    } else {
      std::printf("availability >= %.4f  ->  unachievable under this model\n",
                  target);
    }
  }
  return 0;
}
