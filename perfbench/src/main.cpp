// perfbench — the RobustHD benchmark binary.
//
//   perfbench --workload <wire_small|wide_model|features_repair>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Human-readable lines go to stderr; stdout ends with one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ledger of a traced run. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "workloads.hpp"

namespace {

/// Each of these silently swaps the code being measured (ISA tier, plane
/// layout, arena tiling or page backing), so a run refuses to start when
/// any is set.
constexpr const char* kPinnedEnv[] = {
    "ROBUSTHD_ISA", "ROBUSTHD_FORCE_SCALAR", "ROBUSTHD_LAYOUT",
    "ROBUSTHD_ARENA_TILE_KB", "ROBUSTHD_ARENA_HUGEPAGES"};

int usage() {
  std::cerr << "usage: perfbench --workload <wire_small|wide_model|"
               "features_repair> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Open the inherited software counters before any thread exists.
  proc_counters();
  set_precise_timer_slack();

  std::string workload;
  RunConfig cfg;
  cfg.work_dir = ".bench_build/perfbench-work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
        have_seconds = cfg.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        cfg.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        cfg.work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set: it changes the code being measured\n";
      return 2;
    }
  }

  Result result;
  try {
    if (workload == "wire_small") {
      result = run_wire_small(cfg);
    } else if (workload == "wide_model") {
      result = run_wide_model(cfg);
    } else if (workload == "features_repair") {
      result = run_features_repair(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 1;
  }

  const Metrics& metrics = cfg.trace ? result.per_layer : result.end_to_end;
  // Context recorded with every result: what code and box produced it.
  std::cout << "# workload=" << workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << " isa=" << robusthd::kernels::isa_name(
                              robusthd::kernels::active_isa())
            << " nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE
            << " perf_events=" << proc_counters().perf_events();
  std::cout << " hugepage_backed=" << result.hugepage_backed << "\n";
  for (const auto& m : metrics.items()) {
    std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& m : metrics.items()) {
    std::cout << (first ? "" : ",") << "\"" << m.name
              << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
