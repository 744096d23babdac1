// perfbench_loadgen: the benchmark's single-process load generator.
//
//   perfbench_loadgen gen     --workload=W --seed=S --dir=D [--param=V ...]
//   perfbench_loadgen run     --workload=W --seed=S --dir=D --seconds=T
//                             --trace=0|1 [--trace-out=F] [--param=V ...]
//
// perfbench/run.py builds this binary and passes the workload parameters
// from perfbench/workloads.json; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Options* options) {
  if (argc < 2) return false;
  options->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      options->trace = value == "1";
    } else if (key == "dir") {
      options->dir = value;
    } else if (key == "trace-out") {
      options->trace_out = value;
    } else {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
      options->params[key] = number;
    }
  }
  return !options->dir.empty();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options) ||
      (options.mode != "gen" && options.mode != "run")) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen gen|run --workload=W "
                 "--seed=S --dir=D [--seconds=T --trace=0|1 --name=value ...]\n");
    return 2;
  }
  std::string error;
  if (options.mode == "gen") {
    if (!WriteInputs(options, &error)) {
      std::fprintf(stderr, "perfbench gen: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  RunResult result;
  bool ok = false;
  if (options.workload == "search") {
    ok = RunSearch(options, &result, &error);
  } else if (options.workload == "pairwise") {
    ok = RunPairwise(options, &result, &error);
  } else if (options.workload == "serve" || options.workload == "cluster") {
    ok = RunServed(options, options.workload == "cluster", &result, &error);
  } else {
    error = "unknown workload '" + options.workload + "'";
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench %s: %s\n", options.workload.c_str(),
                 error.c_str());
    return 1;
  }
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
