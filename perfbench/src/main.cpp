// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <rpc_active|kv_shard_fleet|adaptive_burst|chaos_fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --smoke
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the workload once untraced and once traced and attributes both clocks to
// the modules. The last line of standard output is one JSON object. --smoke
// runs every workload at a tiny size in both modes and checks that every
// metric prints with its unit.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --smoke\n"
               "workloads:");
  for (const auto& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_uint(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

// Every name of `names` is in the rendered table with its unit.
bool table_lists(const Result& result, const std::vector<std::string>& names) {
  bool ok = true;
  for (const auto& name : names) {
    const Metric* m = result.find(name);
    if (m == nullptr || m->unit.empty()) {
      std::fprintf(stderr, "smoke: %s %s is missing metric %s\n", result.workload.c_str(),
                   result.traced ? "(trace)" : "", name.c_str());
      ok = false;
    }
  }
  return ok;
}

int smoke(const Stamp& stamp) {
  bool ok = true;
  for (const auto& name : workload_names()) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.seed = 1;
      options.seconds = 0;
      options.trace = trace;
      options.smoke = true;
      const Result result = run_workload(name, options);
      std::printf("%s", render_table(result, stamp).c_str());
      ok = table_lists(result, trace ? per_layer_names() : end_to_end_names()) && ok;
      if (!result.correct()) ok = false;
    }
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  bool run_smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      run_smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_uint(argv[++i], seed)) return usage();
    } else if (arg == "--seconds" && has_value) {
      if (!parse_uint(argv[++i], seconds)) return usage();
    } else if (arg == "--trace" && has_value) {
      if (!parse_uint(argv[++i], trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }

  const Stamp stamp = host_stamp();
  if (!stamp.release) {
    std::fprintf(stderr,
                 "refusing to measure from a build without NDEBUG; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 1;
  }

  try {
    if (run_smoke) return smoke(stamp);
    if (workload.empty()) return usage();
    RunOptions options;
    options.seed = seed;
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;
    const Result result = run_workload(workload, options);
    std::printf("%s", render_table(result, stamp).c_str());
    std::printf("%s\n",
                render_json(result, options.trace ? per_layer_names() : end_to_end_names())
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
