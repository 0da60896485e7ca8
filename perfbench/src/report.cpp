#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

using vdep::LogHistogram;

void Result::add(std::string name, std::string unit, Clock clock, double value) {
  metrics.push_back({std::move(name), std::move(unit), clock, value});
}

const Metric* Result::find(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t digest_of(const std::vector<Metric>& metrics) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& m : metrics) {
    if (!m.deterministic()) continue;
    hash = fnv1a(hash, m.name.data(), m.name.size());
    hash = fnv1a(hash, &m.value, sizeof m.value);
  }
  return hash;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double histogram_median(const LogHistogram& hist) {
  const std::uint64_t n = hist.count();
  if (n == 0) return 0.0;
  const std::uint64_t mid = (n + 1) / 2;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t count = hist.bucket_count(i);
    if (seen + count >= mid) {
      const double lower = std::max(LogHistogram::bucket_lower_bound(i), hist.min());
      const double upper = std::min(LogHistogram::bucket_lower_bound(i + 1), hist.max());
      return lower + (upper - lower) * (static_cast<double>(mid - seen) - 0.5) /
                         static_cast<double>(count);
    }
    seen += count;
  }
  return hist.max();
}

Stamp host_stamp() {
  Stamp stamp;
  stamp.cpus = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        stamp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
  stamp.compiler = PERFBENCH_COMPILER;
  stamp.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  stamp.release = true;
#endif
  return stamp;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the parent's high-water
  // mark across fork+exec into ru_maxrss, so a small benchmark started from
  // a larger launcher would report the launcher's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string_view clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kNone: return "-";
  }
  return "-";
}

namespace {

// Full-precision number; JSON has no NaN or infinity, so those print as 0.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string render_table(const Result& result, const Stamp& stamp) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "perfbench workload=%s seed=%llu trace=%d\n"
                "host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
                result.workload.c_str(), static_cast<unsigned long long>(result.seed),
                result.traced ? 1 : 0, stamp.cpus, stamp.cpu_model.c_str(),
                stamp.compiler.c_str(), stamp.build_type.c_str());
  out += buf;
  std::snprintf(buf, sizeof buf, "  %-44s %-10s %-5s %s\n", "metric", "unit", "clock",
                "value");
  out += buf;
  for (const auto& m : result.metrics) {
    std::snprintf(buf, sizeof buf, "  %-44s %-10s %-5s %s\n", m.name.c_str(),
                  m.unit.c_str(), std::string(clock_name(m.clock)).c_str(),
                  number(m.value).c_str());
    out += buf;
  }
  for (const auto& note : result.notes) out += "  " + note + "\n";
  std::snprintf(buf, sizeof buf, "checks: attempted=%llu failed=%llu -> %s\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.correct() ? "ok" : "FAILED");
  out += buf;
  for (const auto& p : result.problems) out += "  check failed: " + p + "\n";
  std::snprintf(buf, sizeof buf, "determinism digest: %016llx\n",
                static_cast<unsigned long long>(result.digest));
  out += buf;
  return out;
}

std::string render_json(const Result& result, const std::vector<std::string>& names) {
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const Metric* m = result.find(name);
    if (m == nullptr) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + m->name + "\": {\"value\": " + number(m->value) + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
