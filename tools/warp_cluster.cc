// warp_cluster — multi-process sharded serving launcher.
//
//   warp_cluster --shards=3 --snapshot-dir=snapshots --port=7070
//
// Spawns one `warp_serve --worker` process per shard (supervised:
// liveness pings, bounded-backoff restarts re-fed from the snapshot
// directory), then serves the ordinary JSON-lines protocol on the
// router port. Answers are bitwise-identical to a single
// `warp_serve --shards=N` process; while a worker is down, scan queries
// degrade to partial:true + shards_missing. Protocol and topology:
// docs/SERVING.md, "Multi-process cluster". Flags: tools/cluster_main.h
// (shared with `warp_cli cluster`).

#include <cstdio>
#include <cstring>

#include "cluster_main.h"

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "help") == 0 ||
                   std::strcmp(argv[1], "--help") == 0)) {
    std::fputs(
        "warp_cluster — multi-process sharded DTW serving (docs/SERVING.md)\n"
        "  --shards=N                 worker processes (default 1)\n"
        "  --snapshot-dir=PATH        *.wsnap dir loaded by every worker and\n"
        "                             re-fed on restart\n"
        "  --port=N                   router port (default 0 = auto)\n"
        "  --threads=N                scan threads per worker (default 1)\n"
        "  --cache=N                  result-cache entries per worker\n"
        "  --max-queue-depth=N        admission gate at the router and each\n"
        "                             worker (default 1024)\n"
        "  --worker-bin=PATH          warp_serve binary (default: sibling)\n"
        "  --restart-backoff-ms=N     first restart delay (default 200)\n"
        "  --restart-backoff-max-ms=N backoff ceiling (default 5000)\n"
        "  --ping-interval-ms=N       liveness ping cadence; 0 disables\n",
        stdout);
    return 0;
  }
  const warp::tools::ToolFlags flags =
      warp::tools::ParseToolFlags(argc, argv, 1);
  return warp::tools::ClusterToolMain(
      flags, warp::tools::SiblingWorkerBinary(argv[0]));
}
