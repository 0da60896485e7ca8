#include "attribution.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<SpanRow> rows_from_tracer(const vdep::obs::Tracer& tracer) {
  std::vector<SpanRow> rows;
  rows.reserve(tracer.spans().size());
  for (const auto& span : tracer.spans()) {
    rows.push_back({span.id, span.parent, std::string(span.name),
                    static_cast<std::int64_t>(span.start.count()),
                    static_cast<std::int64_t>(span.end.count())});
  }
  return rows;
}

namespace {

// Reads an unsigned decimal at `pos`; advances past it.
std::uint64_t read_uint(std::string_view s, std::size_t& pos) {
  std::uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    ++pos;
  }
  return v;
}

// "<us>.<3 digits>" -> nanoseconds.
std::int64_t read_usec(std::string_view s, std::size_t& pos) {
  std::uint64_t ns = read_uint(s, pos) * 1000;
  if (pos < s.size() && s[pos] == '.') {
    ++pos;
    const std::size_t begin = pos;
    std::uint64_t frac = read_uint(s, pos);
    for (std::size_t digits = pos - begin; digits < 3; ++digits) frac *= 10;
    ns += frac;
  }
  return static_cast<std::int64_t>(ns);
}

// Position just after `key` at or after `from`, or npos.
std::size_t after(std::string_view s, std::string_view key, std::size_t from) {
  const std::size_t at = s.find(key, from);
  return at == std::string_view::npos ? at : at + key.size();
}

}  // namespace

std::vector<SpanRow> rows_from_chrome_trace(std::string_view json) {
  std::vector<SpanRow> rows;
  constexpr std::string_view kName = "{\"name\":\"";
  std::size_t pos = 0;
  while ((pos = after(json, kName, pos)) != std::string_view::npos) {
    std::string name;
    while (pos < json.size() && json[pos] != '"') {
      if (json[pos] == '\\' && pos + 1 < json.size()) ++pos;
      name += json[pos++];
    }
    const std::size_t end = json.find("}}", pos);
    if (end == std::string_view::npos) break;
    const std::string_view event = json.substr(pos, end - pos);
    pos = end;
    if (event.find("\"ph\":\"X\"") == std::string_view::npos) continue;
    SpanRow row;
    row.name = std::move(name);
    std::size_t p = after(event, "\"ts\":", 0);
    if (p == std::string_view::npos) continue;
    row.start_ns = read_usec(event, p);
    p = after(event, "\"dur\":", p);
    if (p == std::string_view::npos) continue;
    row.end_ns = row.start_ns + read_usec(event, p);
    p = after(event, "\"span\":", p);
    if (p == std::string_view::npos) continue;
    row.id = read_uint(event, p);
    p = after(event, "\"parent\":", p);
    if (p == std::string_view::npos) continue;
    row.parent = read_uint(event, p);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::int64_t> self_times(const std::vector<SpanRow>& rows) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) index.emplace(rows[i].id, i);

  // Children's intervals, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(rows.size());
  for (const auto& row : rows) {
    if (row.parent == 0) continue;
    const auto it = index.find(row.parent);
    if (it == index.end()) continue;
    const SpanRow& parent = rows[it->second];
    const std::int64_t lo = std::max(row.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(row.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto& spans = covered[i];
    std::sort(spans.begin(), spans.end());
    std::int64_t covered_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : spans) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered_ns += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, rows[i].end_ns - rows[i].start_ns - covered_ns);
  }
  return self;
}

void accumulate(SpanSummary& summary, const std::vector<SpanRow>& rows) {
  const std::vector<std::int64_t> self = self_times(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto it = summary.find(rows[i].name);
    if (it == summary.end()) it = summary.emplace(rows[i].name, NameTotals{}).first;
    ++it->second.count;
    it->second.self_ns += self[i];
    it->second.duration_ns += rows[i].end_ns - rows[i].start_ns;
  }
}

std::string_view layer_of(std::string_view span_name) {
  static constexpr std::array<std::pair<std::string_view, std::string_view>, 18> kLayers{{
      {"gcs.order", "gcs"},
      {"gcs.deliver", "gcs"},
      {"gcs.view", "membership"},
      {"gcs.takeover", "membership"},
      {"orb.dispatch", "orb"},
      {"client.request", "client"},
      {"coord.send", "replication"},
      {"coord.retry", "replication"},
      {"rep.enqueue", "replication"},
      {"rep.execute", "replication"},
      {"rep.reply", "replication"},
      {"rep.checkpoint", "checkpoint"},
      {"rep.install", "checkpoint"},
      {"rep.promote", "membership"},
      {"rep.state_request", "membership"},
      {"rep.switch", "adaptive"},
      {"adapt.decision", "adaptive"},
      {"shard.route", "shard"},
  }};
  for (const auto& [name, layer] : kLayers) {
    if (name == span_name) return layer;
  }
  return {};
}

std::int64_t layer_self_ns(const SpanSummary& summary, std::string_view layer) {
  std::int64_t total = 0;
  for (const auto& [name, totals] : summary) {
    if (layer_of(name) == layer) total += totals.self_ns;
  }
  return total;
}

std::uint64_t span_count(const SpanSummary& summary, std::string_view name) {
  const auto it = summary.find(name);
  return it == summary.end() ? 0 : it->second.count;
}

}  // namespace perfbench
