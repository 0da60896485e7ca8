#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/actor.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace vdep::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(usec(10), [&] { order.push_back(1); });
  q.schedule(usec(5), [&] { order.push_back(2); });
  q.schedule(usec(10), [&] { order.push_back(3); });  // same time, later insert
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, CancelledEventsSkipped) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(usec(1), [&] { ++fired; });
  q.schedule(usec(2), [&] { ++fired; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  auto h = q.schedule(usec(1), [] {});
  q.schedule(usec(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  h.cancel();
  EXPECT_FALSE(q.empty());
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(Kernel, ClockAdvancesWithEvents) {
  Kernel k(1);
  SimTime seen = kTimeZero;
  k.post(usec(100), [&] { seen = k.now(); });
  k.run();
  EXPECT_EQ(seen, usec(100));
  EXPECT_EQ(k.now(), usec(100));
}

TEST(Kernel, RunUntilStopsAtDeadline) {
  Kernel k(1);
  int fired = 0;
  k.post(usec(10), [&] { ++fired; });
  k.post(usec(30), [&] { ++fired; });
  k.run_until(usec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), usec(20));
  k.run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, EventsCanScheduleEvents) {
  Kernel k(1);
  std::vector<SimTime> times;
  k.post(usec(1), [&] {
    times.push_back(k.now());
    k.post(usec(2), [&] { times.push_back(k.now()); });
  });
  k.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], usec(1));
  EXPECT_EQ(times[1], usec(3));
}

TEST(Kernel, StopHaltsRun) {
  Kernel k(1);
  int fired = 0;
  k.post(usec(1), [&] {
    ++fired;
    k.stop();
  });
  k.post(usec(2), [&] { ++fired; });
  k.run();
  EXPECT_EQ(fired, 1);
  k.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunStepsBounded) {
  Kernel k(1);
  int fired = 0;
  for (int i = 0; i < 10; ++i) k.post(usec(i), [&] { ++fired; });
  EXPECT_EQ(k.run_steps(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run = [] {
    Kernel k(99);
    Rng rng = k.fork_rng(1);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 5; ++i) {
      k.post(usec(rng.below(100)), [&values, &k] {
        values.push_back(static_cast<std::uint64_t>(k.now().count()));
      });
    }
    k.run();
    return values;
  };
  EXPECT_EQ(run(), run());
}

TEST(Process, GuardedCallbackDiesWithProcess) {
  Kernel k(1);
  Process p(k, ProcessId{1}, NodeId{0}, "p");
  int fired = 0;
  p.post(usec(10), [&] { ++fired; });
  k.post(usec(5), [&] { p.crash(); });
  k.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(p.alive());
}

TEST(Process, RestartInvalidatesOldCallbacks) {
  Kernel k(1);
  Process p(k, ProcessId{1}, NodeId{0}, "p");
  int fired = 0;
  p.post(usec(10), [&] { ++fired; });
  k.post(usec(5), [&] {
    p.crash();
    p.restart();  // new incarnation: old callback must NOT run
  });
  k.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(p.alive());
  EXPECT_EQ(p.incarnation(), 2u);
}

TEST(Process, CrashListenersFireOnce) {
  Kernel k(1);
  Process p(k, ProcessId{1}, NodeId{0}, "p");
  int notified = 0;
  p.subscribe_crash([&](ProcessId) { ++notified; });
  p.crash();
  p.crash();  // idempotent
  EXPECT_EQ(notified, 1);
}

TEST(Process, KernelTableTracksLiveObjectsInConstructionOrder) {
  Kernel k(1);
  auto table = [&k] { return std::vector<Process*>(k.processes().begin(), k.processes().end()); };
  Process a(k, ProcessId{5}, NodeId{1}, "a");
  auto b = std::make_unique<Process>(k, ProcessId{3}, NodeId{1}, "b");
  Process c(k, ProcessId{4}, NodeId{2}, "c");
  EXPECT_EQ(k.find_process(ProcessId{3}), b.get());
  EXPECT_EQ(table(), (std::vector<Process*>{&a, b.get(), &c}));

  c.crash();  // crashed processes stay in the table
  EXPECT_EQ(k.find_process(ProcessId{4}), &c);
  b.reset();
  EXPECT_EQ(k.find_process(ProcessId{3}), nullptr);
  EXPECT_EQ(table(), (std::vector<Process*>{&a, &c}));

  // A pid freed by its destroyed process may be taken again; it goes last.
  Process again(k, ProcessId{3}, NodeId{1}, "again");
  EXPECT_EQ(table(), (std::vector<Process*>{&a, &c, &again}));
}

TEST(ProcessDeathTest, PidRegisteredTwiceOnOneKernelAborts) {
  Kernel k(1);
  Process a(k, ProcessId{5}, NodeId{1}, "a");
  EXPECT_DEATH(Process(k, ProcessId{5}, NodeId{2}, "dup"), "pid registered twice");
}

TEST(TimeSeries, ResampleCarriesLastValueForward) {
  TimeSeries ts("x");
  ts.record(msec(10), 1.0);
  ts.record(msec(25), 2.0);
  auto points = ts.resample(kTimeZero, msec(40), msec(10));
  ASSERT_EQ(points.size(), 5u);
  EXPECT_DOUBLE_EQ(points[0].value, 1.0);  // before first point: first value
  EXPECT_DOUBLE_EQ(points[1].value, 1.0);
  EXPECT_DOUBLE_EQ(points[2].value, 1.0);  // 20ms: still 1.0
  EXPECT_DOUBLE_EQ(points[3].value, 2.0);
  EXPECT_DOUBLE_EQ(points[4].value, 2.0);
}

}  // namespace
}  // namespace vdep::sim
