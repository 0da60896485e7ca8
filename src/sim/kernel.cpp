#include "sim/kernel.hpp"

#include "sim/actor.hpp"
#include "util/assert.hpp"

namespace vdep::sim {

Kernel::Kernel(std::uint64_t seed) : root_rng_(seed) {}

EventHandle Kernel::post(SimTime delay, EventFn fn) {
  VDEP_ASSERT_MSG(delay >= kTimeZero, "cannot schedule in the past");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventHandle Kernel::post_at(SimTime at, EventFn fn) {
  VDEP_ASSERT_MSG(at >= now_, "cannot schedule in the past");
  return queue_.schedule(at, std::move(fn));
}

Process* Kernel::find_process(ProcessId pid) const {
  auto it = process_index_.find(pid);
  return it != process_index_.end() ? *it->second : nullptr;
}

void Kernel::register_process(Process& p) {
  const bool fresh = process_index_.emplace(p.id(), processes_.insert(processes_.end(), &p)).second;
  VDEP_ASSERT_MSG(fresh, "pid registered twice on one kernel");
}

void Kernel::unregister_process(const Process& p) {
  processes_.erase(process_index_.extract(p.id()).mapped());
}

void Kernel::execute_one() {
  auto [at, fn] = queue_.pop();
  VDEP_ASSERT(at >= now_);
  now_ = at;
  fn();
  ++executed_;
}

void Kernel::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) execute_one();
}

void Kernel::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
    execute_one();
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

std::size_t Kernel::run_steps(std::size_t n) {
  stopped_ = false;
  std::size_t done = 0;
  while (done < n && !stopped_ && !queue_.empty()) {
    execute_one();
    ++done;
  }
  return done;
}

}  // namespace vdep::sim
