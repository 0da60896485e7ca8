#include "probes.hpp"

#include <vector>

#include "gcs/message.hpp"
#include "orb/giop.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

using namespace vdep;

namespace {

// Keeps probe results observable so the timed calls are not folded away.
volatile std::size_t g_sink = 0;

}  // namespace

double kernel_ns_per_event() {
  struct Actor {
    sim::Kernel* kernel;
    SimTime period;
    std::uint64_t remaining;
    void fire() {
      if (remaining-- == 0) return;
      kernel->post(period, [this] { fire(); });
    }
  };
  constexpr int kActors = 64;
  constexpr std::uint64_t kRounds = 1000;
  std::vector<double> per_event;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Kernel kernel(7);
    std::vector<Actor> actors;
    actors.reserve(kActors);
    for (int i = 0; i < kActors; ++i) {
      actors.push_back(Actor{&kernel, usec(3 + i % 17), kRounds});
    }
    const auto start = std::chrono::steady_clock::now();
    for (auto& a : actors) a.fire();
    kernel.run();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    per_event.push_back(elapsed.count() * 1e9 /
                        static_cast<double>(kernel.events_executed()));
  }
  std::sort(per_event.begin(), per_event.end());
  return per_event[per_event.size() / 2];
}

double gcs_codec_ns(std::size_t payload_bytes) {
  gcs::Ordered msg;
  msg.group = GroupId(7);
  msg.epoch = 3;
  msg.seq = 41;
  msg.origin = gcs::OriginId{ProcessId(101), 40};
  msg.origin_daemon = NodeId(2);
  msg.payload = Bytes(payload_bytes, 0x5a);
  msg.stable_upto = 39;
  const gcs::InnerMsg inner = msg;
  return ns_per_call([&] {
    const Payload frame = gcs::encode_inner(inner);
    const gcs::InnerMsg back = gcs::decode_inner(frame);
    g_sink = g_sink + frame.size() + back.index();
  });
}

double giop_round_trip_ns(std::size_t request_bytes, std::size_t reply_bytes) {
  orb::RequestMessage request;
  request.request_id = 77;
  request.object_key = ObjectId(1);
  request.operation = "process";
  request.service_contexts.push_back(
      orb::FtRequestContext{ProcessId(101), 77, NodeId(2), sec(10)}.to_context());
  request.body = Bytes(request_bytes, 0x11);
  orb::ReplyMessage reply;
  reply.request_id = 77;
  reply.body = Bytes(reply_bytes, 0x22);
  return ns_per_call([&] {
    const Bytes req = request.encode();
    const orb::GiopMessage req_back = orb::decode_giop(req);
    const Bytes rep = reply.encode();
    const orb::GiopMessage rep_back = orb::decode_giop(rep);
    g_sink = g_sink + req.size() + rep.size() + req_back.request->body.size() +
             rep_back.reply->body.size();
  });
}

CheckpointProbe probe_checkpoint(replication::Replicator& replica) {
  CheckpointProbe probe;
  const std::size_t entries = replica.params().checkpoint_reply_entries;
  const replication::ReplyCache& cache = replica.reply_cache();
  probe.serialize_recent_ns = ns_per_call([&] {
    const Bytes recent = cache.serialize_recent(entries);
    g_sink = g_sink + recent.size();
  });
  probe.snapshot_ns = ns_per_call([&] {
    const Bytes state = replica.app().snapshot();
    g_sink = g_sink + state.size();
  });

  replication::CheckpointMsg msg;
  msg.kind = replication::CheckpointMsg::Kind::kFull;
  msg.checkpoint_id = replica.checkpoints_taken() + 1;
  msg.applied = replica.applied_frontier();
  msg.app_state = replica.app().snapshot();
  msg.reply_cache = cache.serialize_recent(entries);
  probe.encode_ns = ns_per_call([&] {
    const Bytes wire = msg.encode();
    g_sink = g_sink + wire.size();
  });
  const Payload wire = msg.encode();
  probe.decode_ns = ns_per_call([&] {
    const replication::CheckpointMsg back = replication::CheckpointMsg::decode(wire);
    g_sink = g_sink + back.applied.size();
  });
  return probe;
}

}  // namespace perfbench
