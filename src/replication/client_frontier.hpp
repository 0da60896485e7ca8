// The exactly-once frontier: each client's highest retention id folded into
// a replica's state.
//
// A flat vector of (client, rid) kept sorted by client. A group accumulates
// one entry per client it has ever served (thousands on a large fleet) and
// every checkpoint copies, encodes, decodes and installs the whole frontier,
// so the representation is chosen for those bulk paths: a cut copies one
// contiguous buffer, a decode appends in wire order (ascending client ids,
// exactly as an ordered map iterates), and an install assigns into the
// capacity the previous install left behind. Point lookups are binary
// searches; inserting a client never seen before shifts the tail, which
// happens once per client.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace vdep::replication {

class ClientFrontier {
 public:
  using value_type = std::pair<ProcessId, std::uint64_t>;
  using const_iterator = std::vector<value_type>::const_iterator;

  ClientFrontier() = default;
  // Any order; a repeated client keeps its first rid (as std::map does).
  ClientFrontier(std::initializer_list<value_type> entries) {
    for (const auto& [client, rid] : entries) {
      if (find(client) == nullptr) (*this)[client] = rid;
    }
  }

  // The client's entry, inserted at 0 when absent. The reference is
  // invalidated by the next insertion.
  std::uint64_t& operator[](ProcessId client) {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), client, client_below);
    if (it == entries_.end() || it->first != client) {
      it = entries_.insert(it, value_type{client, 0});
    }
    return it->second;
  }

  // The client's entry, or nullptr when the frontier has none.
  [[nodiscard]] const std::uint64_t* find(ProcessId client) const {
    const auto it =
        std::lower_bound(entries_.begin(), entries_.end(), client, client_below);
    return it != entries_.end() && it->first == client ? &it->second : nullptr;
  }

  // Decoder fast path: appends an entry whose client is above every client
  // held. Returns false, appending nothing, when it is not.
  [[nodiscard]] bool append(ProcessId client, std::uint64_t rid) {
    if (!entries_.empty() && !(entries_.back().first < client)) return false;
    entries_.emplace_back(client, rid);
    return true;
  }
  void reserve(std::size_t n) { entries_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  friend bool operator==(const ClientFrontier&, const ClientFrontier&) = default;

 private:
  static bool client_below(const value_type& e, ProcessId c) { return e.first < c; }

  std::vector<value_type> entries_;  // sorted by client, one entry each
};

}  // namespace vdep::replication
