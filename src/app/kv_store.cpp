#include "app/kv_store.hpp"

#include "orb/cdr.hpp"
#include "util/assert.hpp"

namespace vdep::app {

namespace {
// Snapshot bytes of one entry beyond its key and value: two u32 length
// prefixes. The store's own u32 entry count is the initial state_size().
constexpr std::size_t kEntryOverhead = 8;
constexpr std::size_t kEmptyStateBytes = 4;
}  // namespace

KvStoreServant::KvStoreServant(Config config)
    : config_(config), state_bytes_(kEmptyStateBytes) {}

bool KvStoreServant::assign(const std::string& key, std::string_view value) {
  auto [it, inserted] = data_.try_emplace(key);
  if (inserted) state_bytes_ += kEntryOverhead + key.size();
  state_bytes_ = state_bytes_ - it->second.size() + value.size();
  it->second.assign(value);
  return !inserted;
}

bool KvStoreServant::remove(const std::string& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return false;
  erase_at(it);
  return true;
}

std::map<std::string, std::string>::iterator KvStoreServant::erase_at(
    std::map<std::string, std::string>::iterator it) {
  state_bytes_ -= kEntryOverhead + it->first.size() + it->second.size();
  return data_.erase(it);
}

orb::Servant::Result KvStoreServant::invoke(const std::string& operation,
                                            const Bytes& args) {
  Result result;
  try {
    orb::CdrReader r(args);
    if (operation == "put") {
      const std::string key = r.string();
      const std::string value = r.string();
      result.cpu_time = config_.write_time;
      const bool existed = assign(key, value);
      mark_written(key);
      orb::CdrWriter w;
      w.boolean(existed);
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "append") {
      const std::string key = r.string();
      const std::string value = r.string();
      result.cpu_time = config_.write_time;
      auto [it, inserted] = data_.try_emplace(key);
      if (inserted) state_bytes_ += kEntryOverhead + key.size();
      std::string& cell = it->second;
      cell += value;
      state_bytes_ += value.size();
      mark_written(key);
      orb::CdrWriter w;
      w.ulong(static_cast<std::uint32_t>(cell.size()));
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "get") {
      const std::string key = r.string();
      result.cpu_time = config_.read_time;
      orb::CdrWriter w;
      auto it = data_.find(key);
      w.boolean(it != data_.end());
      w.string(it != data_.end() ? it->second : "");
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "erase") {
      const std::string key = r.string();
      result.cpu_time = config_.write_time;
      orb::CdrWriter w;
      const bool existed = remove(key);
      if (existed) mark_erased(key);
      w.boolean(existed);
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "size") {
      result.cpu_time = config_.read_time;
      orb::CdrWriter w;
      w.ulong(static_cast<std::uint32_t>(data_.size()));
      result.output = std::move(w).take();
      return result;
    }
  } catch (const DecodeError&) {
    // Malformed arguments: fall through to the failure reply.
  }
  result.ok = false;
  return result;
}

Bytes KvStoreServant::snapshot() const {
  ByteWriter w(state_bytes_);
  write_snapshot(w);
  return std::move(w).take();
}

void KvStoreServant::write_snapshot(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(data_.size()));
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.str(value);
  }
}

void KvStoreServant::restore(std::span<const std::uint8_t> snapshot) {
  // Merge the key-ordered snapshot into the store in one pass: equal keys
  // are assigned in place, stored keys the snapshot lacks are erased, and
  // only keys new to the store allocate a node. A backup installing a
  // checkpoint of a mostly unchanged store then touches little memory.
  ByteReader r(snapshot);
  const auto n = r.u32();
  auto it = data_.begin();
  std::string_view prev;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string_view key = r.str_view();
    const std::string_view value = r.str_view();
    if (i > 0 && key <= prev) throw r.error("snapshot keys not ascending");
    prev = key;
    while (it != data_.end() && it->first < key) it = erase_at(it);
    if (it != data_.end() && it->first == key) {
      state_bytes_ = state_bytes_ - it->second.size() + value.size();
      it->second.assign(value);
      ++it;
    } else {
      it = std::next(data_.emplace_hint(it, key, value));
      state_bytes_ += kEntryOverhead + key.size() + value.size();
    }
  }
  while (it != data_.end()) it = erase_at(it);
  // The per-key stamps described the overwritten state; deltas can only be
  // answered for cuts taken from here on. Epochs stay monotone across
  // restores so stale `since` values are rejected, never misanswered.
  write_epoch_.clear();
  tombstone_.clear();
  delta_floor_ = epoch_;
}

void KvStoreServant::mark_written(const std::string& key) {
  write_epoch_[key] = epoch_;
  tombstone_.erase(key);
}

void KvStoreServant::mark_erased(const std::string& key) {
  write_epoch_.erase(key);
  tombstone_[key] = epoch_;
}

std::uint64_t KvStoreServant::cut_epoch() { return epoch_++; }

std::optional<Bytes> KvStoreServant::snapshot_delta(std::uint64_t since_epoch) const {
  // Mutations in the cut labelled `e` carry stamp <= e; the delta since `e`
  // is everything stamped after it. Unanswerable once tracking was reset.
  if (since_epoch < delta_floor_ || since_epoch >= epoch_) return std::nullopt;
  ByteWriter w;
  std::uint32_t upserts = 0;
  for (const auto& [key, stamp] : write_epoch_) {
    if (stamp > since_epoch) ++upserts;
  }
  w.u32(upserts);
  for (const auto& [key, stamp] : write_epoch_) {
    if (stamp <= since_epoch) continue;
    const auto it = data_.find(key);
    VDEP_ASSERT_MSG(it != data_.end(), "dirty key missing from store");
    w.str(key);
    w.str(it->second);
  }
  std::uint32_t erased = 0;
  for (const auto& [key, stamp] : tombstone_) {
    if (stamp > since_epoch) ++erased;
  }
  w.u32(erased);
  for (const auto& [key, stamp] : tombstone_) {
    if (stamp > since_epoch) w.str(key);
  }
  return std::move(w).take();
}

void KvStoreServant::apply_delta(std::span<const std::uint8_t> delta) {
  ByteReader r(delta);
  const auto upserts = r.u32();
  for (std::uint32_t i = 0; i < upserts; ++i) {
    const std::string key = r.str();
    assign(key, r.str_view());
    mark_written(key);
  }
  const auto erased = r.u32();
  for (std::uint32_t i = 0; i < erased; ++i) {
    const std::string key = r.str();
    remove(key);
    mark_erased(key);
  }
}

std::uint64_t KvStoreServant::state_digest() const {
  // std::map iterates in key order, so the digest is replica-deterministic.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ULL;
  };
  for (const auto& [key, value] : data_) {
    mix(key);
    mix(value);
  }
  return h;
}

Bytes KvStoreServant::encode_put(const std::string& key, const std::string& value) {
  orb::CdrWriter w;
  w.string(key);
  w.string(value);
  return std::move(w).take();
}

Bytes KvStoreServant::encode_key(const std::string& key) {
  orb::CdrWriter w;
  w.string(key);
  return std::move(w).take();
}

KvStoreServant::GetResult KvStoreServant::decode_get(const Bytes& body) {
  orb::CdrReader r(body);
  GetResult out;
  out.found = r.boolean();
  out.value = r.string();
  return out;
}

bool KvStoreServant::decode_flag(const Bytes& body) {
  orb::CdrReader r(body);
  return r.boolean();
}

Bytes KvStoreServant::encode_append(const std::string& key, const std::string& value) {
  return encode_put(key, value);
}

std::uint32_t KvStoreServant::decode_ulong(const Bytes& body) {
  orb::CdrReader r(body);
  return r.ulong();
}

std::optional<std::string> KvStoreServant::lookup(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vdep::app
