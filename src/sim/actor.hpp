// Simulated processes with crash-stop semantics.
//
// A Process is the unit of failure (the paper replicates and recovers whole
// CORBA processes). Crashing a process invalidates every callback it has
// scheduled — including CPU work completions — via an epoch counter, so no
// stale event can run "after death". Restart bumps the epoch again, modelling
// a cold-passive launch of a fresh replica.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/ids.hpp"

namespace vdep::sim {

class Process {
 public:
  // Adds itself to the kernel's process table (see Kernel::find_process) and
  // leaves it on destruction.
  Process(Kernel& kernel, ProcessId id, NodeId host, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] NodeId host() const { return host_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] SimTime now() const { return kernel_.now(); }

  // Wraps `fn` so that it is a no-op unless this process is still alive in
  // the same incarnation as when the wrapper was created. Returns the raw
  // lambda (not a type-erased EventFn): the guard adds only 16 bytes to the
  // wrapped callable, so hot-path captures still fit EventClosure's inline
  // buffer instead of forcing a nested closure-in-closure heap allocation.
  template <typename F>
  [[nodiscard]] auto guarded(F&& fn) {
    return [this, epoch = epoch_, f = std::forward<F>(fn)]() mutable {
      if (alive_ && epoch_ == epoch) f();
    };
  }

  // Schedules `fn` guarded by this process's liveness.
  template <typename F>
  EventHandle post(SimTime delay, F&& fn) {
    return kernel_.post(delay, guarded(std::forward<F>(fn)));
  }

  // Kills the process (crash-stop). Idempotent. Fires crash listeners once.
  void crash();

  // Brings a crashed process back as a new incarnation and calls on_start().
  void restart();

  // Called on restart; subclasses reinitialise volatile state here.
  virtual void on_start() {}
  // Called on crash, before external listeners.
  virtual void on_crash() {}

  // External observers (e.g. the local group-communication daemon) register
  // to learn of this process's crash the way an OS would report a dead child.
  void subscribe_crash(std::function<void(ProcessId)> listener);

  // Observers of the opposite transition (e.g. the scenario harness
  // rebuilding a replica's replication stack when the fault plan brings the
  // process back). Fired after on_start(), once per restart.
  void subscribe_restart(std::function<void(ProcessId)> listener);

  [[nodiscard]] std::uint64_t incarnation() const { return epoch_; }

 protected:
  Kernel& kernel_;

 private:
  ProcessId id_;
  NodeId host_;
  std::string name_;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  std::vector<std::function<void(ProcessId)>> crash_listeners_;
  std::vector<std::function<void(ProcessId)>> restart_listeners_;
};

}  // namespace vdep::sim
