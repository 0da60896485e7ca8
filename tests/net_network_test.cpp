#include <gtest/gtest.h>

#include "net/fault_plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"

namespace vdep::net {
namespace {

struct NetFixture : ::testing::Test {
  NetFixture() : kernel(1), network(kernel) {
    a = network.add_host("a");
    b = network.add_host("b");
  }

  void bind_collector(NodeId host, std::vector<Payload>& sink) {
    network.bind(host, Port::kTcp, [&sink](Packet&& p) {
      sink.push_back(std::move(p.payload));
    });
  }

  Packet make_packet(NodeId from, NodeId to, std::size_t size = 100) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.port = Port::kTcp;
    p.payload = filler_bytes(size);
    return p;
  }

  sim::Kernel kernel;
  Network network;
  NodeId a, b;
};

TEST_F(NetFixture, DeliversToBoundHandler) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], filler_bytes(100));
}

TEST_F(NetFixture, PropagationAndSerializationDelay) {
  std::vector<Payload> got;
  SimTime arrival = kTimeZero;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrival = kernel.now(); });
  LinkParams link;
  link.propagation = usec(100);
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1000 bytes take 1 ms
  network.set_link_params(a, b, link);
  Packet p = make_packet(a, b);
  p.wire_bytes = 1000;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(arrival, usec(1100));
}

TEST_F(NetFixture, SerializationQueuesBackToBack) {
  std::vector<SimTime> arrivals;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrivals.push_back(kernel.now()); });
  LinkParams link;
  link.propagation = kTimeZero;
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;
  network.set_link_params(a, b, link);
  for (int i = 0; i < 2; ++i) {
    Packet p = make_packet(a, b);
    p.wire_bytes = 1000;
    network.send(std::move(p));
  }
  kernel.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(1));
  EXPECT_EQ(arrivals[1], msec(2));  // queued behind the first
}

// The per-pair serialization queue lives in a table that grows with the host
// set: a host added after traffic must not reset an existing pair's queue.
TEST_F(NetFixture, AddingAHostKeepsExistingSerializationQueues) {
  std::vector<SimTime> arrivals;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrivals.push_back(kernel.now()); });
  LinkParams link;
  link.propagation = kTimeZero;
  link.jitter_stddev = kTimeZero;
  link.bandwidth_bytes_per_sec = 1e6;
  network.set_link_params(a, b, link);
  Packet first = make_packet(a, b);
  first.wire_bytes = 1000;
  network.send(std::move(first));

  const NodeId c = network.add_host("c");
  std::vector<Payload> got_c;
  bind_collector(c, got_c);
  Packet second = make_packet(a, b);
  second.wire_bytes = 1000;
  network.send(std::move(second));
  network.send(make_packet(a, c));
  kernel.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(1));
  EXPECT_EQ(arrivals[1], msec(2));  // still queued behind the first
  EXPECT_EQ(got_c.size(), 1u);
}

// send() skips the override and partition lookups while none is set; the
// first one set after fault-free traffic must still take effect.
TEST_F(NetFixture, FaultsSetAfterTrafficStillApply) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  ASSERT_EQ(got.size(), 1u);

  network.partition({a}, {b});
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().dropped_packets, 1u);

  network.heal_partitions();
  LinkParams lossy;
  lossy.loss_probability = 1.0;
  network.set_link_params(a, b, lossy);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().dropped_packets, 2u);

  network.set_link_params(a, b, LinkParams{});
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got.size(), 2u);
}

TEST_F(NetFixture, UnboundPortDropsAndRebindDelivers) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.unbind(b, Port::kTcp);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(NetFixture, LoopbackIsFreeAndUncounted) {
  std::vector<Payload> got;
  bind_collector(a, got);
  network.send(make_packet(a, a));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().bytes, 0u);
}

TEST_F(NetFixture, AccountingCountsWireBytes) {
  std::vector<Payload> got;
  bind_collector(b, got);
  Packet p = make_packet(a, b);
  p.wire_bytes = 500;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(network.totals().packets, 1u);
  EXPECT_EQ(network.totals().bytes, 500u);
  EXPECT_EQ(network.host_sent(a).bytes, 500u);
  EXPECT_EQ(network.host_sent(b).bytes, 0u);
}

TEST_F(NetFixture, UncountedControlTrafficExcluded) {
  std::vector<Payload> got;
  bind_collector(b, got);
  Packet p = make_packet(a, b);
  p.counted = false;
  network.send(std::move(p));
  kernel.run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(network.totals().bytes, 0u);
}

TEST_F(NetFixture, LossDropsUnreliablePackets) {
  std::vector<Payload> got;
  bind_collector(b, got);
  LinkParams link;
  link.loss_probability = 1.0;
  network.set_link_params(a, b, link);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(network.totals().dropped_packets, 1u);
}

TEST_F(NetFixture, ReliablePacketsSurviveLossWithPenalty) {
  SimTime arrival = kTimeZero;
  network.bind(b, Port::kTcp, [&](Packet&&) { arrival = kernel.now(); });
  LinkParams link;
  link.loss_probability = 1.0;
  link.jitter_stddev = kTimeZero;
  network.set_link_params(a, b, link);
  Packet p = make_packet(a, b);
  p.reliable = true;
  network.send(std::move(p));
  kernel.run();
  EXPECT_GT(arrival, msec(1));  // retransmission penalty applied
}

TEST_F(NetFixture, PartitionCutsBothDirections) {
  std::vector<Payload> got_a, got_b;
  bind_collector(a, got_a);
  bind_collector(b, got_b);
  network.partition({a}, {b});
  Packet p1 = make_packet(a, b);
  p1.reliable = true;  // even reliable traffic cannot cross a partition
  network.send(std::move(p1));
  network.send(make_packet(b, a));
  kernel.run();
  EXPECT_TRUE(got_a.empty());
  EXPECT_TRUE(got_b.empty());
  network.heal_partitions();
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_EQ(got_b.size(), 1u);
}

TEST_F(NetFixture, DeadHostNeitherSendsNorReceives) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.set_host_up(a, false);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
  network.set_host_up(a, true);
  network.set_host_up(b, false);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_TRUE(got.empty());
}

TEST_F(NetFixture, ResetTotalsClearsCounters) {
  std::vector<Payload> got;
  bind_collector(b, got);
  network.send(make_packet(a, b));
  kernel.run();
  EXPECT_GT(network.totals().bytes, 0u);
  network.reset_totals();
  EXPECT_EQ(network.totals().bytes, 0u);
  EXPECT_EQ(network.host_sent(a).bytes, 0u);
}

TEST(LinkHelpers, FragmentCounts) {
  EXPECT_EQ(fragment_count(0), 1u);
  EXPECT_EQ(fragment_count(1), 1u);
  EXPECT_EQ(fragment_count(1400), 1u);
  EXPECT_EQ(fragment_count(1401), 2u);
  EXPECT_EQ(fragment_count(14000), 10u);
}

TEST(LinkHelpers, WireBytesIncludePerFragmentHeaders) {
  EXPECT_EQ(wire_bytes(100, 50), 150u);
  EXPECT_EQ(wire_bytes(2800, 50), 2800u + 2u * 50u);
}

TEST(FaultPlan, CrashAndRestartProcesses) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h = network.add_host("h");
  sim::Process p(kernel, ProcessId{1}, h, "p");

  FaultPlan plan;
  plan.crash_process(msec(10), p.id());
  plan.restart_process(msec(20), p.id());
  plan.arm(kernel, network);

  kernel.run_until(msec(15));
  EXPECT_FALSE(p.alive());
  kernel.run_until(msec(25));
  EXPECT_TRUE(p.alive());
}

TEST(FaultPlan, NodeCrashKillsResidentProcesses) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h0 = network.add_host("h0");
  const NodeId h1 = network.add_host("h1");
  sim::Process p0(kernel, ProcessId{1}, h0, "p0");
  sim::Process p1(kernel, ProcessId{2}, h1, "p1");

  FaultPlan plan;
  plan.crash_node(msec(10), h0);
  plan.restore_node(msec(30), h0);
  plan.arm(kernel, network);

  kernel.run_until(msec(20));
  EXPECT_FALSE(p0.alive());
  EXPECT_TRUE(p1.alive());
  EXPECT_FALSE(network.host_up(h0));
  kernel.run_until(msec(40));
  EXPECT_TRUE(network.host_up(h0));
}

TEST(FaultPlan, SlowHostWindowIsPerformanceFault) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId h = network.add_host("h");
  FaultPlan plan;
  plan.slow_host(msec(10), msec(20), h, 4.0);
  plan.arm(kernel, network);
  kernel.run_until(msec(15));
  EXPECT_DOUBLE_EQ(network.cpu(h).slowdown(), 4.0);
  kernel.run_until(msec(25));
  EXPECT_DOUBLE_EQ(network.cpu(h).slowdown(), 1.0);
}

TEST(FaultPlan, LossBurstWindowRestoresCleanLink) {
  sim::Kernel kernel(1);
  Network network(kernel);
  const NodeId a = network.add_host("a");
  const NodeId b = network.add_host("b");
  FaultPlan plan;
  plan.loss_burst(msec(10), msec(20), a, b, 0.7);
  plan.arm(kernel, network);
  kernel.run_until(msec(15));
  EXPECT_DOUBLE_EQ(network.link_params(a, b).loss_probability, 0.7);
  EXPECT_DOUBLE_EQ(network.link_params(b, a).loss_probability, 0.7);
  kernel.run_until(msec(25));
  EXPECT_DOUBLE_EQ(network.link_params(a, b).loss_probability, 0.0);
}

}  // namespace
}  // namespace vdep::net
