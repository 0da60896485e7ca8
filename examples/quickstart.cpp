// Quickstart: replicate a service, lose a replica, keep serving.
//
// Builds the simulated testbed (hosts + group-communication daemons), runs a
// 3-replica actively-replicated service under client load, crashes the
// lowest-ranked replica mid-run, and shows that the cycle completes with no
// client-visible failures — then walks the knob registry the way an operator
// would.
//
// Run:  ./quickstart [requests=2000] [seed=42]
#include <cstdio>

#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "knobs/versatile.hpp"
#include "util/config.hpp"

using namespace vdep;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);

  // 1. Describe the deployment: 2 clients, 3 active replicas, each process
  //    on its own simulated host with a group-communication daemon.
  harness::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  config.clients = 2;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kActive;
  harness::Scenario scenario(config);

  // 2. Inject a fault: the senior replica dies one second in.
  scenario.fault_plan().crash_process(sec(1), scenario.replica_pid(0));

  // 3. Run the micro-benchmark cycle.
  harness::Scenario::CycleConfig cycle;
  cycle.requests_per_client = static_cast<int>(cfg.get_int("requests", 2000));
  const harness::ExperimentResult result = scenario.run_closed_loop(cycle);

  std::printf("quickstart — active replication surviving a replica crash\n\n");
  harness::Table table({"metric", "value"});
  table.add_row({"requests completed", std::to_string(result.completed)});
  table.add_row({"client retransmissions", std::to_string(result.retransmissions)});
  table.add_row({"mean round-trip [us]", harness::Table::num(result.avg_latency_us)});
  table.add_row({"p99 round-trip [us]", harness::Table::num(result.p99_latency_us)});
  table.add_row({"bandwidth [MB/s]", harness::Table::num(result.bandwidth_mbps, 3)});
  table.add_row({"replicas still alive", std::to_string(scenario.group().live_count())});
  table.add_row({"faults still tolerated", std::to_string(result.faults_tolerated)});
  std::printf("%s\n", table.render().c_str());

  // 4. Verify the survivors agree (state-machine replication at work).
  scenario.drain();
  const auto digests = scenario.live_state_digests();
  std::printf("surviving replica state digests: %llx, %llx (%s)\n\n",
              static_cast<unsigned long long>(digests.at(0)),
              static_cast<unsigned long long>(digests.at(1)),
              digests.at(0) == digests.at(1) ? "consistent" : "DIVERGED");

  // 5. The knob view of the same system: this is the interface versatile
  //    dependability gives operators.
  knobs::VersatileDependability vd(scenario.group());
  std::printf("knobs available on this service:\n");
  for (const knobs::Knob* knob : vd.registry().list()) {
    std::printf("  [%s] %-22s = %-12s %s\n",
                knob->level() == knobs::KnobLevel::kLow ? "low " : "high",
                knob->name().c_str(), knob->get().c_str(),
                knob->description().c_str());
  }

  // 6. Turn one: drop to a resource-frugal style at runtime (the Fig. 5
  //    protocol runs live) and prove the service still works.
  vd.registry().at("ReplicationStyle").set("warm_passive");
  scenario.drain(sec(1));
  std::printf("\nafter turning ReplicationStyle -> %s, responder is replica rank 0\n",
              replication::to_string(scenario.group().style()).c_str());
  return 0;
}
