#include "warp/cluster/router.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "warp/cluster/supervisor.h"
#include "warp/cluster/worker.h"
#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/protocol.h"
#include "warp/serve/replies.h"
#include "warp/serve/request.h"

namespace warp {
namespace cluster {

namespace {

using serve::ControlOp;
using serve::Neighbor;
using serve::ParsedLine;
using serve::ServeRequest;
using serve::ServeResponse;

}  // namespace

struct Router::Impl {
  struct Link {
    WorkerClient client;
    uint64_t generation = 0;
  };

  // Bookkeeping for one query inside a scatter pass.
  struct QueryState {
    std::vector<size_t> targets;           // Shards scattered to, ascending.
    std::vector<ServeResponse> subs;       // Parallel to `targets`.
    std::vector<bool> have;                // Parallel to `targets`.
    std::vector<size_t> missing;           // Shards with no answer.
    serve::DatasetInfo info;
    bool have_info = false;
  };

  RouterOptions options;
  Supervisor* supervisor;

  // Worker links and the dataset info cache, both guarded by
  // scatter_mutex: the batcher scatters one batch at a time, and control
  // ops take their turn between batches.
  std::mutex scatter_mutex;
  std::vector<Link> links;
  std::map<std::string, serve::DatasetInfo> dataset_info;

  Impl(const RouterOptions& opts, Supervisor* sup)
      : options(opts), supervisor(sup) {
    links.resize(supervisor->shards());
  }

  // ---- worker link management (scatter_mutex held) ----

  bool LinkUp(size_t shard) {
    const WorkerStatus status = supervisor->Status(shard);
    Link& link = links[shard];
    if (!status.up) {
      link.client.Disconnect();
      return false;
    }
    if (link.client.connected() && link.generation == status.generation) {
      return true;
    }
    std::string error;
    if (!link.client.Connect(status.port, options.connect_timeout_ms,
                             &error)) {
      return false;
    }
    link.generation = status.generation;
    return true;
  }

  // First live worker that completes `line` -> its one reply.
  bool FirstWorkerRoundTrip(const std::string& line, std::string* reply) {
    for (size_t shard = 0; shard < links.size(); ++shard) {
      if (!LinkUp(shard)) continue;
      std::vector<std::string> replies;
      if (!links[shard].client.Send(line + "\n") ||
          !links[shard].client.ReadLines(1, options.gather_timeout_ms,
                                         &replies)) {
        continue;
      }
      *reply = std::move(replies[0]);
      return true;
    }
    return false;
  }

  // Sends `line` to every live worker first (so they work in parallel),
  // then collects one reply from each worker that took it.
  std::vector<std::string> Broadcast(const std::string& line) {
    std::vector<size_t> sent;
    for (size_t shard = 0; shard < links.size(); ++shard) {
      if (LinkUp(shard) && links[shard].client.Send(line + "\n")) {
        sent.push_back(shard);
      }
    }
    std::vector<std::string> replies;
    for (const size_t shard : sent) {
      std::vector<std::string> reply;
      if (links[shard].client.ReadLines(1, options.gather_timeout_ms,
                                        &reply)) {
        replies.push_back(std::move(reply[0]));
      }
    }
    return replies;
  }

  // ---- dataset info cache (scatter_mutex held) ----

  bool EnsureInfo(const std::string& dataset, serve::DatasetInfo* info) {
    const auto it = dataset_info.find(dataset);
    if (it != dataset_info.end()) {
      *info = it->second;
      return true;
    }
    obs::JsonWriter writer;
    writer.BeginObject()
        .Key("id").Int(0)
        .Key("op").String("info")
        .Key("dataset").String(dataset)
        .EndObject();
    std::string reply, error;
    if (!FirstWorkerRoundTrip(writer.TakeOutput(), &reply) ||
        !serve::ParseInfo(reply, info, &error)) {
      return false;
    }
    dataset_info[dataset] = *info;
    return true;
  }

  // ---- scatter / gather ----

  // One scatter/gather pass over the queries listed in `idx`. Fills
  // (*merged)[i] for each. When `retry` is non-null, queries whose
  // sub-scans hit an epoch mismatch are appended there (with their cache
  // entry invalidated) instead of being answered; when null, the
  // mismatch error is relayed like any other worker error.
  void ScatterPass(const std::vector<ServeRequest>& requests,
                   const std::vector<size_t>& idx,
                   std::vector<ServeResponse>* merged,
                   std::vector<size_t>* retry) {
    const size_t shards = supervisor->shards();
    std::vector<QueryState> states(idx.size());

    struct WorkerBatch {
      std::string payload;
      // (position in `idx`, position in that query's targets).
      std::vector<std::pair<size_t, size_t>> slots;
    };
    std::vector<WorkerBatch> batches(shards);
    std::vector<bool> up(shards);
    for (size_t shard = 0; shard < shards; ++shard) up[shard] = LinkUp(shard);

    // Build: stamp each sub-scan with (shard, epoch) and append it to its
    // worker's payload. Queries keep batch order within each payload.
    for (size_t q = 0; q < idx.size(); ++q) {
      const ServeRequest& request = requests[idx[q]];
      QueryState& state = states[q];
      state.have_info = EnsureInfo(request.dataset, &state.info);
      if (serve::IsScanOp(request.op)) {
        for (size_t shard = 0; shard < shards; ++shard) {
          state.targets.push_back(shard);
        }
      } else {
        // dist/subsequence: only the owner shard holds the series.
        size_t owner = 0;
        if (state.have_info) {
          owner = serve::ShardRouter::Partition(request.index,
                                                state.info.epoch, shards);
        }
        state.targets.push_back(owner);
      }
      state.subs.resize(state.targets.size());
      state.have.assign(state.targets.size(), false);
      WARP_COUNT(obs::Counter::kClusterScatters);
      for (size_t t = 0; t < state.targets.size(); ++t) {
        const size_t shard = state.targets[t];
        if (!up[shard]) {
          state.missing.push_back(shard);
          continue;
        }
        ServeRequest sub = request;
        sub.shard_filter = static_cast<long>(shard);
        sub.require_epoch = state.have_info ? state.info.epoch : 0;
        batches[shard].payload += serve::FormatRequest(sub);
        batches[shard].payload += '\n';
        batches[shard].slots.push_back({q, t});
      }
    }

    // Write all payloads first so the workers compute in parallel.
    for (size_t shard = 0; shard < shards; ++shard) {
      if (!up[shard] || batches[shard].slots.empty()) continue;
      if (!links[shard].client.Send(batches[shard].payload)) {
        up[shard] = false;
        for (const auto& slot : batches[shard].slots) {
          states[slot.first].missing.push_back(shard);
        }
      }
    }

    // Gather in pinned shard order. A worker that dies mid-stream takes
    // its whole batch down: the survivors' answers still merge, flagged.
    for (size_t shard = 0; shard < shards; ++shard) {
      WorkerBatch& batch = batches[shard];
      if (!up[shard] || batch.slots.empty()) continue;
      std::vector<std::string> lines;
      if (!links[shard].client.ReadLines(batch.slots.size(),
                                         options.gather_timeout_ms, &lines)) {
        up[shard] = false;
        for (const auto& slot : batch.slots) {
          states[slot.first].missing.push_back(shard);
        }
        continue;
      }
      for (size_t j = 0; j < lines.size(); ++j) {
        const auto& [q, t] = batch.slots[j];
        std::string error;
        if (serve::ParseResponseLine(lines[j], &states[q].subs[t], &error)) {
          states[q].have[t] = true;
        } else {
          states[q].missing.push_back(shard);
        }
      }
    }

    // Merge.
    for (size_t q = 0; q < idx.size(); ++q) {
      const size_t i = idx[q];
      if (retry != nullptr && HasEpochMismatch(states[q])) {
        dataset_info.erase(requests[i].dataset);
        retry->push_back(i);
        continue;
      }
      (*merged)[i] = MergeQuery(requests[i], &states[q]);
    }
  }

  static bool HasEpochMismatch(const QueryState& state) {
    for (size_t t = 0; t < state.targets.size(); ++t) {
      if (state.have[t] && !state.subs[t].ok &&
          state.subs[t].error.rfind("epoch mismatch", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  ServeResponse MergeQuery(const ServeRequest& request, QueryState* state) {
    std::sort(state->missing.begin(), state->missing.end());
    state->missing.erase(
        std::unique(state->missing.begin(), state->missing.end()),
        state->missing.end());

    // First worker error in shard order wins — every worker derives the
    // same validation error from the same request, so this matches the
    // single process's (single) error text.
    for (size_t t = 0; t < state->targets.size(); ++t) {
      if (state->have[t] && !state->subs[t].ok) {
        return serve::ErrorResponse(request, state->subs[t].error);
      }
    }

    if (!serve::IsScanOp(request.op)) {
      // Single-target ops: relay the owner's reply field-for-field. With
      // the owner down there is no partial answer to degrade to, so this
      // fails fast instead of guessing.
      if (!state->missing.empty() || !state->have[0]) {
        WARP_COUNT(obs::Counter::kClusterPartialReplies);
        return serve::ErrorResponse(
            request, "shard " + std::to_string(state->targets[0]) +
                         " is down; series unavailable");
      }
      ServeResponse out = state->subs[0];
      out.id = request.id;
      return out;
    }

    ServeResponse out;
    out.id = request.id;
    out.op = request.op;
    out.ok = true;
    bool any_partial = false;
    std::vector<const std::vector<Neighbor>*> parts;
    for (size_t t = 0; t < state->targets.size(); ++t) {
      if (!state->have[t]) continue;
      const ServeResponse& sub = state->subs[t];
      out.scanned += sub.scanned;
      out.total += sub.total;
      any_partial |= sub.partial;
      parts.push_back(&sub.neighbors);
    }
    if (!state->missing.empty() && state->have_info) {
      // Keep "of total candidates" meaning the whole dataset even while
      // some of it is unreachable.
      out.total = state->info.size;
    }
    out.partial =
        any_partial || !state->missing.empty() || out.scanned < out.total;
    out.shards_missing = state->missing;
    out.neighbors = serve::GatherNeighbors(request, parts);
    if (!state->missing.empty()) {
      WARP_COUNT(obs::Counter::kClusterPartialReplies);
    }
    return out;
  }

  std::string HandleControl(const ParsedLine& parsed, const std::string& line,
                            int port);
  std::string HandleLoad(const ParsedLine& parsed, const std::string& line);
};

std::string Router::Impl::HandleControl(const ParsedLine& parsed,
                                        const std::string& line, int port) {
  if (parsed.control == ControlOp::kPing) {
    return serve::FormatAck(parsed.id, "ping");
  }
  if (parsed.control == ControlOp::kShutdown) {
    // Stop resurrecting first: the workers' clean exits are not failures.
    // Their shutdown acks are read (best effort) so the send is not lost
    // to a closing socket.
    supervisor->DisableRestarts();
    std::lock_guard<std::mutex> lock(scatter_mutex);
    Broadcast(line);
    for (Link& link : links) link.client.Disconnect();
    return serve::FormatAck(parsed.id, "shutdown");
  }
  if (parsed.control == ControlOp::kLoad ||
      parsed.control == ControlOp::kLoadSnapshot) {
    return HandleLoad(parsed, line);
  }

  std::lock_guard<std::mutex> lock(scatter_mutex);
  std::string reply, error;
  switch (parsed.control) {
    case ControlOp::kInfo: {
      serve::DatasetInfo info;
      if (!FirstWorkerRoundTrip(line, &reply)) {
        return serve::FormatErrorLine(parsed.id, "no shard workers available");
      }
      if (!serve::ParseInfo(reply, &info, &error)) {
        return serve::FormatErrorLine(parsed.id, error);
      }
      dataset_info[info.dataset] = info;
      // Clients see the cluster as one server: the router's own port and
      // no worker_shard marker.
      info.port = port;
      info.worker_shard = -1;
      return serve::FormatInfo(parsed.id, info);
    }
    case ControlOp::kStats:
    case ControlOp::kMetrics: {
      // The router's own registries (cluster counters, the gather and its
      // own parse/queue stages) plus every live worker's reading.
      const bool stats = parsed.control == ControlOp::kStats;
      serve::ServerReading merged;
      merged.counters = obs::SnapshotCounters();
      merged.histograms = obs::SnapshotHistograms();
      merged.gauges = obs::SnapshotGauges();
      merged.shards = supervisor->shards();
      for (const std::string& worker_reply : Broadcast(line)) {
        serve::ServerReading worker;
        if (stats ? serve::ParseStats(worker_reply, &worker, &error)
                  : serve::ParseMetrics(worker_reply, &worker, &error)) {
          merged.Add(worker);
        }
      }
      return stats ? serve::FormatStats(parsed.id, merged)
                   : serve::FormatMetrics(parsed.id, merged);
    }
    case ControlOp::kSlowlog: {
      uint64_t capacity = 0;
      std::vector<serve::SlowQueryRecord> entries;
      for (const std::string& worker_reply : Broadcast(line)) {
        uint64_t worker_capacity = 0;
        std::vector<serve::SlowQueryRecord> worker_entries;
        if (!serve::ParseSlowlog(worker_reply, &worker_capacity,
                                 &worker_entries, &error)) {
          continue;
        }
        capacity += worker_capacity;
        entries.insert(entries.end(), worker_entries.begin(),
                       worker_entries.end());
      }
      // The order a single server drains in: slowest engine time first.
      std::stable_sort(entries.begin(), entries.end(),
                       [](const serve::SlowQueryRecord& a,
                          const serve::SlowQueryRecord& b) {
                         return a.engine_us > b.engine_us;
                       });
      return serve::FormatSlowlog(parsed.id, capacity, entries);
    }
    case ControlOp::kSaveSnapshot:
      if (!FirstWorkerRoundTrip(line, &reply)) {
        return serve::FormatErrorLine(parsed.id, "no shard workers available");
      }
      return reply;
    default:
      break;
  }
  return serve::FormatErrorLine(parsed.id, "internal: unhandled control op");
}

std::string Router::Impl::HandleLoad(const ParsedLine& parsed,
                                     const std::string& line) {
  const std::string op_name =
      parsed.control == ControlOp::kLoad ? "load" : "load_snapshot";
  std::lock_guard<std::mutex> lock(scatter_mutex);
  // Loads change the epoch sequence, which every worker must share: a
  // worker that misses one would refuse every stamped scan afterwards.
  // Refuse up front rather than let the cluster diverge.
  for (size_t shard = 0; shard < links.size(); ++shard) {
    if (!LinkUp(shard)) {
      return serve::FormatErrorLine(
          parsed.id, op_name + " requires every shard worker up; shard " +
                         std::to_string(shard) + " is down");
    }
  }
  const std::vector<std::string> replies = Broadcast(line);
  if (replies.size() != links.size()) {
    return serve::FormatErrorLine(
        parsed.id, op_name +
                       ": a shard worker failed mid-load; cluster epochs may "
                       "have diverged");
  }
  // Every worker executed the identical registration against the same
  // store state, so the replies must match byte-for-byte; a divergence
  // means the cluster is no longer in lockstep.
  for (size_t shard = 1; shard < replies.size(); ++shard) {
    if (replies[shard] != replies[0]) {
      return serve::FormatErrorLine(
          parsed.id,
          op_name + ": shard workers disagree; cluster epochs diverged");
    }
  }
  serve::DatasetInfo info;
  std::string error;
  if (serve::ParseInfo(replies[0], &info, &error) && !info.dataset.empty()) {
    dataset_info[info.dataset] = info;
  }
  return replies[0];
}

Router::Router(const RouterOptions& options, Supervisor* supervisor)
    : FrontEnd(static_cast<uint16_t>(options.port),
               supervisor->max_queue_depth()),
      impl_(std::make_unique<Impl>(options, supervisor)) {}

Router::~Router() { StopConnections(); }

void Router::ExecuteQueries(const std::vector<ServeRequest>& requests,
                            std::vector<ServeResponse>* responses) {
  std::lock_guard<std::mutex> lock(impl_->scatter_mutex);
  const Stopwatch gather_watch;
  responses->assign(requests.size(), ServeResponse{});
  std::vector<size_t> all(requests.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<size_t> retry;
  impl_->ScatterPass(requests, all, responses, &retry);
  if (!retry.empty()) {
    // The workers advanced past our cached epoch (a load raced this
    // batch). Re-plan against fresh info, once; a second mismatch is
    // relayed as the error it is.
    impl_->ScatterPass(requests, retry, responses, nullptr);
  }
  WARP_HISTOGRAM_RECORD_US(obs::Histogram::kRouterGatherUs,
                           gather_watch.ElapsedMicros());
}

std::string Router::HandleControl(const ParsedLine& parsed,
                                  const std::string& line) {
  return impl_->HandleControl(parsed, line, port());
}

}  // namespace cluster
}  // namespace warp
