// proof_perfbench: one workload of the PRoof performance benchmark per
// process.  perfbench/run.py builds this binary and runs it as
//
//   proof_perfbench --workload <cold_profile|sweep_campaign|serve_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <chrome-trace.json>] [--commit <id>]
//
// It prints detail lines (host stamp, tail percentile with its sample count,
// checks, reconciliation) and, last, one JSON result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// It exits 1 when a correctness check failed, 2 on a usage error.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage(const std::string& why) {
  std::cerr << "proof_perfbench: " << why
            << "\nusage: proof_perfbench --workload <cold_profile|sweep_campaign|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--commit <id>]\n";
  return 2;
}

std::string host_stamp(const Args& args, const std::string& commit) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef PROOF_OBS_DISABLED
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
  return "{\"nproc\":" + std::to_string(affinity) +
         ",\"online_cpus\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"commit\":" + quote(commit) + ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + std::to_string(args.seconds) +
         ",\"trace\":" + (args.trace ? "true" : "false") +
         ",\"proof_obs\":{\"compiled\":" + (obs_compiled ? "true" : "false") +
         ",\"runtime\":" + (proof::obs::enabled() ? "true" : "false") + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || args.seconds < 1) {
    return usage("--seed and a positive --seconds are required");
  }

  Result result;
  const std::vector<std::string> self_failures = self_test(args);
  try {
    if (args.workload == "cold_profile") {
      result = run_cold_profile(args);
    } else if (args.workload == "sweep_campaign") {
      result = run_sweep_campaign(args);
    } else if (args.workload == "serve_mix") {
      result = run_serve_mix(args);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "proof_perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& f : self_failures) {
    result.fail("self-test: " + f);
  }
  if (args.trace && !args.trace_out.empty()) {
    Tracer::instance().write_chrome_trace(args.trace_out);
  }

  std::string problems = "[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    problems += (i == 0 ? "" : ",") + quote(result.problems[i]);
  }
  problems += "]";
  std::string detail = "{\"workload\":" + quote(args.workload) +
                       ",\"host\":" + host_stamp(args, commit) +
                       ",\"problems\":" + problems;
  for (const auto& [key, raw] : result.detail) {
    detail += "," + quote(key) + ":" + raw;
  }
  std::cout << "{\"detail\":" << detail << "}}\n";

  const bool correct = result.problems.empty() && result.failed == 0;
  std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    line += (i == 0 ? "" : ",") + quote(name) + ":{\"value\":" + num(value.first) +
            ",\"unit\":" + quote(value.second) + "}";
  }
  std::cout << line << "}}\n" << std::flush;
  return correct ? 0 : 1;
}
