// perfbench: one command for PIMCOMP's compile time, compiled-program
// quality and served-request latency (see ../README.md).
//
//   perfbench --workload compile-cold|serve-mix|fleet-tiers --seed N
//             --seconds S --trace 0|1
//
// Prints a table of every metric, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
// that line, when a workload cannot run.

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload compile-cold|serve-mix|fleet-tiers"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

extern "C" void on_signal(int) { g_interrupted.store(true); }

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(config.seconds > 0.0)) usage("--seconds must be positive");
  using Workload = Report (*)(const RunConfig&, Tracer&);
  const std::map<std::string, Workload> workloads = {
      {"compile-cold", run_compile_cold},
      {"serve-mix", run_serve_mix},
      {"fleet-tiers", run_fleet_tiers},
  };
  const auto workload = workloads.find(config.workload);
  if (workload == workloads.end()) {
    usage("unknown workload '" + config.workload + "'");
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Sockets and caches live under a per-process directory of the work
  // directory (relative paths keep Unix socket names short).
  config.scratch = work_dir + "/" + std::to_string(::getpid());
  Tracer tracer;
  Report report;
  try {
    TempDir scratch(config.scratch);
    report = workload->second(config, tracer);
    if (config.trace) {
      // Spans stay in memory during the run and are written once, here.
      const std::string path = work_dir + "/traces/" + config.workload +
                               "-seed" + std::to_string(config.seed) + ".json";
      tracer.write(path);
      std::cerr << "perfbench: wrote " << tracer.spans().size()
                << " spans to " << path << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  print_table(config, report);
  std::cout << result_line(config, report).dump(-1) << std::endl;
  return 0;
}
