#include "gcs/view.hpp"

#include <algorithm>
#include <sstream>

namespace vdep::gcs {

bool View::contains(ProcessId p) const {
  return std::any_of(members.begin(), members.end(),
                     [p](const Member& m) { return m.process == p; });
}

std::optional<NodeId> View::daemon_of(ProcessId p) const {
  for (const auto& m : members) {
    if (m.process == p) return m.daemon;
  }
  return std::nullopt;
}

std::optional<std::size_t> View::rank_of(ProcessId p) const {
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].process == p) return i;
  }
  return std::nullopt;
}

Bytes View::encode() const {
  ByteWriter w;
  w.u64(group.value());
  w.u64(view_id);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) {
    w.u64(m.process.value());
    w.u64(m.daemon.value());
  }
  return std::move(w).take();
}

View View::decode(std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  View v;
  v.group = GroupId{r.u64()};
  v.view_id = r.u64();
  // Each member is 16 bytes, so a count the frame cannot hold is rejected
  // before anything is allocated for it.
  const auto n = r.u32();
  if (n > r.remaining() / 16) throw r.error("member count exceeds frame", r.pos() - 4);
  v.members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Member m;
    m.process = ProcessId{r.u64()};
    m.daemon = NodeId{r.u64()};
    v.members.push_back(m);
  }
  return v;
}

std::string View::str() const {
  std::ostringstream os;
  os << "view(g=" << group.str() << ", id=" << view_id << ", members=[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) os << ",";
    os << members[i].process.str();
  }
  os << "])";
  return os.str();
}

}  // namespace vdep::gcs
