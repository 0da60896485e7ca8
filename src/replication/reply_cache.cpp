#include "replication/reply_cache.hpp"

#include "util/assert.hpp"

namespace vdep::replication {

ReplyCache::ReplyCache(std::size_t capacity) : capacity_(capacity) {
  VDEP_ASSERT(capacity > 0);
}

void ReplyCache::put(const RequestId& id, Payload reply_giop) {
  const auto [it, inserted] = index_.emplace(id, evicted_ + fifo_.size());
  if (!inserted) {
    // Replay after failover can re-record a reply; deterministic execution
    // means the bytes match, so keep the original.
    return;
  }
  fifo_.push_back(Entry{id, std::move(reply_giop)});
  evict_to_capacity();
}

void ReplyCache::evict_to_capacity() {
  while (fifo_.size() > capacity_) {
    index_.erase(fifo_.front().id);
    fifo_.pop_front();
    ++evicted_;
  }
}

std::optional<Payload> ReplyCache::get(const RequestId& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return fifo_[it->second - evicted_].reply;
}

bool ReplyCache::contains(const RequestId& id) const { return index_.contains(id); }

Bytes ReplyCache::serialize() const { return serialize_recent(fifo_.size()); }

Bytes ReplyCache::serialize_recent(std::size_t max_entries) const {
  const std::size_t n = std::min(max_entries, fifo_.size());
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = fifo_.size() - n; i < fifo_.size(); ++i) {
    const Entry& e = fifo_[i];
    w.u64(e.id.client.value());
    w.u64(e.id.seq);
    w.bytes(e.reply);
  }
  return std::move(w).take();
}

void ReplyCache::restore(const Payload& raw) {
  clear();
  ByteReader r(raw.owner(), raw);
  const auto n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    RequestId id;
    id.client = ProcessId{r.u64()};
    id.seq = r.u64();
    put(id, read_payload(r));
  }
}

void ReplyCache::clear() {
  fifo_.clear();
  index_.clear();
  evicted_ = 0;
}

}  // namespace vdep::replication
