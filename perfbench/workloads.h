// The four workloads. Each reads the seed's inputs from options.dir,
// measures for options.seconds, checks every answer, and returns the
// end-to-end metrics (options.trace == false) or the per-layer metrics
// (options.trace == true). A false return is a harness failure (a child
// that would not start, a broken connection): no result is printed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

bool RunSearch(const Options& options, RunResult* result, std::string* error);
bool RunPairwise(const Options& options, RunResult* result, std::string* error);
// `cluster` selects warp_cluster (router + shard workers) over warp_serve.
bool RunServed(const Options& options, bool cluster, RunResult* result,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
