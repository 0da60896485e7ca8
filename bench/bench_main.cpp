// Shared main for the google-benchmark binaries.
//
// Bench hygiene: BENCH_*.json baselines are only meaningful from an
// optimized, assertion-free build. This main stamps the *library under
// test's* build type into the JSON context ("vdep_build_type") — the
// stock "library_build_type" field describes the system libbenchmark,
// which Debian ships without NDEBUG and therefore always reads "debug" —
// and refuses to write a --benchmark_out file at all when this binary was
// compiled with assertions enabled. It also stamps the host CPU model
// ("vdep_cpu_model"), so each baseline names the machine it was recorded on
// next to the stock "host_name" and "num_cpus".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace {

#ifdef NDEBUG
constexpr const char* kVdepBuildType = "release";
#else
constexpr const char* kVdepBuildType = "debug";
#endif

// The first "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    const auto value = line.find_first_not_of(" \t", colon + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

bool wants_recording(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) return true;
    if (std::strcmp(argv[i], "--benchmark_out") == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(kVdepBuildType, "release") != 0 && wants_recording(argc, argv)) {
    std::fprintf(stderr,
                 "refusing to record a BENCH_*.json baseline from a debug build "
                 "(NDEBUG not set); configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 1;
  }
  benchmark::AddCustomContext("vdep_build_type", kVdepBuildType);
  benchmark::AddCustomContext("vdep_cpu_model", cpu_model());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
