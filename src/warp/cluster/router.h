// The cluster front end: one process speaking the ordinary serve wire
// protocol to clients, scattering every query to the shard workers and
// gathering their sub-scans into answers that are BITWISE-identical to a
// single-process `--shards=N` server (docs/SERVING.md, "Multi-process
// cluster"). It is a serve::FrontEnd like the single-process server, so
// it shares its connection loop, its batcher (group commit, and the
// --max-queue-depth admission gate) and its reply formats; only the
// executor (scatter/gather) and the control-op answers are its own.
//
// Determinism contract, layer by layer:
//   * every sub-scan is stamped ("shard":K, "shard_epoch":E) via
//     FormatRequest, and a worker refuses mis-routed or stale work, so an
//     answer can only ever be assembled from the pinned partition;
//   * the workers' per-shard hit lists merge through the engine's own
//     gather (serve::GatherNeighbors), so the merge cannot drift from
//     the single process's shard-major chunk merge;
//   * dist/subsequence go only to the owning shard
//     (ShardRouter::Partition) and the reply is relayed field-for-field;
//   * doubles cross the wire via FormatDouble <-> strtod, so every
//     distance survives bit-for-bit and the re-serialized merge is
//     byte-identical.
//
// Degradation: while a shard's worker is down, scan queries still answer
// from the remaining shards with `partial:true` and `shards_missing:[K]`
// (never cached by workers, so recovery is clean); dist/subsequence
// targeting the dead shard fail fast with an error. Stats, metrics, and
// slowlog fan out to every live worker; their replies parse into typed
// readings (serve/replies.h) that sum with the router's own.

#ifndef WARP_CLUSTER_ROUTER_H_
#define WARP_CLUSTER_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "warp/serve/front_end.h"

namespace warp {
namespace cluster {

class Supervisor;

struct RouterOptions {
  int port = 0;               // 0 = kernel-assigned; port() reports it.
  int connect_timeout_ms = 2000;   // Per worker (re)connect.
  int gather_timeout_ms = 60000;   // Max wait per sub-scan reply line.
};

// Serves client connections against the supervisor's workers; the
// batcher's admission gate takes the supervisor's max_queue_depth, the
// same bound every worker applies.
class Router : public serve::FrontEnd {
 public:
  Router(const RouterOptions& options, Supervisor* supervisor);
  ~Router() override;

 private:
  void ExecuteQueries(const std::vector<serve::ServeRequest>& requests,
                      std::vector<serve::ServeResponse>* responses) override;
  std::string HandleControl(const serve::ParsedLine& parsed,
                            const std::string& line) override;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cluster
}  // namespace warp

#endif  // WARP_CLUSTER_ROUTER_H_
