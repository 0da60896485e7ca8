// Chaos workload clients: closed-loop KV traffic with a recorded history.
//
// A WorkloadClient drives one client process of a trial testbed through a
// genuine client path — on a single-group Scenario its own ORB and
// client-side replicator (ClientCoordinator), exactly like the application
// clients in examples/kv_cluster.cpp; on a sharded cluster the client's
// ShardRouter — so retransmissions, failovers, reply dedup and stale-map
// retries all happen on the real code paths. The testbed supplies only how
// an op is sent; issuing, pacing and recording are the same everywhere.
//
// The exactly-once oracle needs duplicated executions to be *visible in
// state*, so the workload's backbone is "append" operations carrying unique
// tokens to a per-client log key: a retransmission that is wrongly
// re-executed leaves its token in the log twice.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/actor.hpp"
#include "util/rng.hpp"

namespace vdep::chaos {

struct OpRecord {
  int client = 0;
  std::uint64_t seq = 0;     // per-client issue index
  std::string op;            // "append" | "put" | "get"
  std::string key;
  std::string token;         // append payload token, "" otherwise
  SimTime issued_at = kTimeZero;
  std::optional<SimTime> completed_at;
  bool ok = false;  // reply status was kNoException
};

// The log key replica state is audited under, and the token grammar.
[[nodiscard]] std::string client_log_key(int client_index);
[[nodiscard]] std::string append_token(int client_index, std::uint64_t seq);
// Splits a log value back into tokens ("[...]" concatenation).
[[nodiscard]] std::vector<std::string> parse_tokens(const std::string& log_value);

class WorkloadClient {
 public:
  struct Config {
    int index = 0;
    int ops = 100;
    SimTime gap = msec(12);        // think time between completions
    SimTime start_at = msec(250);  // first op of client 0, after the group settles
    SimTime stagger = usec(125);   // per-index offset of each client's first op
    double append_ratio = 0.7;     // rest split between put and get
    // Put/get keys: key_prefix + a uniform draw below key_space.
    std::string key_prefix;
    std::uint64_t key_space = 8;
  };

  // Delivers one op to the service: `value` is the append token, the put
  // value, or empty for a get; `done(ok)` reports the reply.
  using Done = std::function<void(bool ok)>;
  using Send = std::function<void(const OpRecord& op, const std::string& value, Done done)>;

  // `process` paces the client (its crash silences it).
  WorkloadClient(sim::Process& process, Config config, Rng rng, Send send);

  // Schedules the first request.
  void start();

  [[nodiscard]] bool done() const { return completed_ == config_.ops; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] SimTime last_completed_at() const { return last_completed_; }
  [[nodiscard]] const std::vector<OpRecord>& history() const { return history_; }

  // Fires once when the final op completes.
  std::function<void()> on_done;

 private:
  void issue_next();

  sim::Process& process_;
  Config config_;
  Rng rng_;
  Send send_;
  std::uint64_t next_seq_ = 0;
  int completed_ = 0;
  SimTime last_completed_ = kTimeZero;
  std::vector<OpRecord> history_;
};

}  // namespace vdep::chaos
