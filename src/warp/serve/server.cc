#include "warp/serve/server.h"

#include <cmath>
#include <memory>
#include <utility>

#include "warp/obs/json_writer.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/replies.h"
#include "warp/serve/result_cache.h"
#include "warp/serve/slowlog.h"
#include "warp/serve/snapshot.h"
#include "warp/ts/io.h"

namespace warp {
namespace serve {

namespace {

std::vector<size_t> BandsFromFractions(const std::vector<double>& fractions,
                                       size_t length) {
  std::vector<size_t> bands;
  if (length == 0) return bands;
  bands.reserve(fractions.size());
  for (double fraction : fractions) {
    if (fraction < 0.0) continue;
    bands.push_back(
        static_cast<size_t>(std::lround(fraction * static_cast<double>(length))));
  }
  return bands;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        store(options.shards),
        cache(options.cache_capacity),
        slowlog(options.slowlog_capacity),
        engine(&store, options.cache_capacity > 0 ? &cache : nullptr,
               options.threads,
               options.slowlog_capacity > 0 ? &slowlog : nullptr) {}

  std::string HandleControl(const ParsedLine& parsed, int port);
  ServerReading Reading() const;

  // Registers a UCR file (`fractions` empty = options.band_fractions) or
  // a warp-snap-v1 file (`name` empty = the stored name). nullptr and
  // *error on failure, with the store unchanged.
  std::shared_ptr<const StoredDataset> LoadUcr(
      const std::string& name, const std::string& path,
      const std::vector<double>& fractions, std::string* error) {
    Dataset dataset;
    if (!LoadUcrFile(path, &dataset, error)) return nullptr;
    const size_t length = dataset.UniformLength();
    return store.Register(
        name, std::move(dataset),
        BandsFromFractions(
            fractions.empty() ? options.band_fractions : fractions, length));
  }
  std::shared_ptr<const StoredDataset> LoadIndex(const std::string& name,
                                                 const std::string& path,
                                                 std::string* error) {
    DatasetIndex index;
    SnapshotMeta meta;
    if (!LoadSnapshot(path, &index, &meta, error)) return nullptr;
    return store.RegisterIndex(name.empty() ? meta.dataset : name,
                               std::move(index));
  }

  ServerOptions options;
  DatasetStore store;
  ResultCache cache;
  SlowQueryLog slowlog;
  QueryEngine engine;
};

ServerReading Server::Impl::Reading() const {
  // Counters, histograms and gauges come from the process-wide obs
  // registries; cache and slowlog from this server's own instances, the
  // single source of truth for their behavior (the registry's
  // serve_cache_* counters aggregate every cache in the process).
  ServerReading reading;
  reading.counters = obs::SnapshotCounters();
  reading.histograms = obs::SnapshotHistograms();
  reading.gauges = obs::SnapshotGauges();
  reading.shards = store.shard_count();
  reading.cache_size = cache.size();
  reading.cache_capacity = cache.capacity();
  reading.cache_hits = cache.hits();
  reading.cache_misses = cache.misses();
  reading.cache_evictions = cache.evictions();
  reading.slowlog_capacity = slowlog.capacity();
  reading.slowlog_pending = slowlog.size();
  reading.datasets = store.Names();
  return reading;
}

std::string Server::Impl::HandleControl(const ParsedLine& parsed, int port) {
  switch (parsed.control) {
    case ControlOp::kPing:
      return FormatAck(parsed.id, "ping");
    case ControlOp::kInfo: {
      std::shared_ptr<const StoredDataset> snapshot =
          store.Get(parsed.dataset);
      if (snapshot == nullptr) {
        return FormatErrorLine(parsed.id,
                               "unknown dataset: '" + parsed.dataset + "'");
      }
      DatasetInfo info;
      info.dataset = snapshot->name;
      info.size = snapshot->size();
      info.length = snapshot->uniform_length;
      info.epoch = snapshot->epoch;
      info.shards = snapshot->shard_count();
      info.port = port;
      info.worker_shard = options.worker_shard;
      info.bands.assign(snapshot->bands.begin(), snapshot->bands.end());
      return FormatInfo(parsed.id, info);
    }
    case ControlOp::kStats:
      return FormatStats(parsed.id, Reading());
    case ControlOp::kMetrics:
      return FormatMetrics(parsed.id, Reading());
    case ControlOp::kSlowlog:
      return FormatSlowlog(parsed.id, slowlog.capacity(), slowlog.Drain());
    case ControlOp::kLoad:
    case ControlOp::kLoadSnapshot: {
      const bool ucr = parsed.control == ControlOp::kLoad;
      const char* op = ucr ? "load" : "load_snapshot";
      std::string error;
      const std::shared_ptr<const StoredDataset> snapshot =
          ucr ? LoadUcr(parsed.dataset, parsed.path, parsed.band_fractions,
                        &error)
              : LoadIndex(parsed.dataset, parsed.path, &error);
      if (snapshot == nullptr) {
        // The io or snapshot layer's precise reason (missing file,
        // truncated row, version mismatch) goes back to the client
        // verbatim instead of killing the server; the store is untouched.
        return FormatErrorLine(parsed.id, std::string(op) + " failed: " + error);
      }
      obs::JsonWriter writer;
      writer.BeginObject()
          .Key("id").Int(parsed.id)
          .Key("ok").Bool(true)
          .Key("op").String(op)
          .Key("dataset").String(snapshot->name)
          .Key("size").Uint(snapshot->size())
          .Key("length").Uint(snapshot->uniform_length)
          .Key("epoch").Uint(snapshot->epoch);
      if (!ucr) writer.Key("shards").Uint(snapshot->shard_count());
      writer.EndObject();
      return writer.TakeOutput();
    }
    case ControlOp::kSaveSnapshot: {
      std::shared_ptr<const StoredDataset> snapshot =
          store.Get(parsed.dataset);
      if (snapshot == nullptr) {
        return FormatErrorLine(parsed.id,
                               "unknown dataset: '" + parsed.dataset + "'");
      }
      std::string error;
      SnapshotMeta meta;
      if (!SaveSnapshot(*snapshot, parsed.path, &error, &meta)) {
        return FormatErrorLine(parsed.id, "save_snapshot failed: " + error);
      }
      obs::JsonWriter writer;
      writer.BeginObject()
          .Key("id").Int(parsed.id)
          .Key("ok").Bool(true)
          .Key("op").String("save_snapshot")
          .Key("dataset").String(meta.dataset)
          .Key("path").String(parsed.path)
          .Key("series").Uint(meta.series)
          .Key("payload_bytes").Uint(meta.payload_bytes)
          .EndObject();
      return writer.TakeOutput();
    }
    case ControlOp::kShutdown:
      return FormatAck(parsed.id, "shutdown");
    case ControlOp::kNone:
      break;
  }
  return FormatErrorLine(parsed.id, "internal: unhandled control op");
}

Server::Server(ServerOptions options)
    : FrontEnd(options.port, options.max_queue_depth),
      impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { StopConnections(); }

void Server::ExecuteQueries(const std::vector<ServeRequest>& requests,
                            std::vector<ServeResponse>* responses) {
  const long shard = impl_->options.worker_shard;
  if (shard < 0) {
    impl_->engine.RunBatch(requests, responses);
    return;
  }
  // A shard worker answers only sub-scans stamped for its own shard: a
  // mis-routed (or unstamped) query would silently cover the wrong
  // candidate set, so it is refused instead.
  responses->assign(requests.size(), ServeResponse{});
  std::vector<ServeRequest> routed;
  std::vector<size_t> routed_slot;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& request = requests[i];
    if (request.shard_filter == shard) {
      routed.push_back(request);
      routed_slot.push_back(i);
      continue;
    }
    (*responses)[i] = ErrorResponse(
        request, "mis-routed sub-scan: this worker serves shard " +
                     std::to_string(shard) + " of " +
                     std::to_string(impl_->options.shards) +
                     ", request stamped " +
                     (request.shard_filter < 0
                          ? std::string("no shard")
                          : "shard " + std::to_string(request.shard_filter)));
  }
  std::vector<ServeResponse> answered;
  impl_->engine.RunBatch(routed, &answered);
  for (size_t j = 0; j < answered.size(); ++j) {
    (*responses)[routed_slot[j]] = std::move(answered[j]);
  }
}

std::string Server::HandleControl(const ParsedLine& parsed,
                                  const std::string& /*line*/) {
  return impl_->HandleControl(parsed, port());
}

void Server::RegisterDataset(const std::string& name, Dataset dataset) {
  const size_t length = dataset.UniformLength();
  impl_->store.Register(
      name, std::move(dataset),
      BandsFromFractions(impl_->options.band_fractions, length));
}

bool Server::LoadDataset(const std::string& name, const std::string& path,
                         const std::vector<double>& band_fractions,
                         std::string* error) {
  return impl_->LoadUcr(name, path, band_fractions, error) != nullptr;
}

bool Server::LoadSnapshotFile(const std::string& name,
                              const std::string& path, std::string* error) {
  return impl_->LoadIndex(name, path, error) != nullptr;
}

bool Server::LoadSnapshotDir(const std::string& dir, std::string* error) {
  std::vector<std::string> paths;
  if (!ListSnapshotFiles(dir, &paths, error)) return false;
  for (const std::string& path : paths) {
    if (!LoadSnapshotFile("", path, error)) return false;
  }
  return true;
}

const DatasetStore& Server::store() const { return impl_->store; }

}  // namespace serve
}  // namespace warp
