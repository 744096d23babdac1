// The control-op replies a cluster router reads back and merges: `info`,
// `stats`, `metrics` and `slowlog` (docs/SERVING.md). Each writer sits
// next to the parser that inverts it, over one typed reading, so a server
// writes its own reading, a router parses its workers' replies into the
// same type, sums them, and writes the sum with the same writer: the two
// roles cannot drift apart in shape.

#ifndef WARP_SERVE_REPLIES_H_
#define WARP_SERVE_REPLIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"
#include "warp/serve/slowlog.h"

namespace warp {
namespace serve {

// {"id":<id>,"ok":true,"op":<op>}: the ping and shutdown acknowledgement.
std::string FormatAck(int64_t id, const char* op);

// The `info` reply. `worker_shard` is written only when >= 0 (shard
// workers report the shard they serve).
struct DatasetInfo {
  std::string dataset;
  uint64_t size = 0;
  uint64_t length = 0;
  uint64_t epoch = 0;
  uint64_t shards = 0;
  int64_t port = 0;
  int64_t worker_shard = -1;
  std::vector<uint64_t> bands;
};

std::string FormatInfo(int64_t id, const DatasetInfo& info);

// Reads an `info` reply — or a `load`/`load_snapshot` reply, which carries
// a subset of the same members. Returns false and fills *error on
// malformed input or an ok:false reply (with that reply's error text).
bool ParseInfo(const std::string& line, DatasetInfo* info,
               std::string* error);

// One server's observability reading: the process registries plus the
// server's own result cache, slow-query log, shard count and datasets.
// `stats` writes part of it and `metrics` the rest; each parser fills
// exactly what its reply carries.
struct ServerReading {
  obs::MetricsSnapshot counters;
  obs::HistogramSnapshot histograms;
  obs::GaugeSnapshot gauges;
  uint64_t shards = 0;
  uint64_t cache_size = 0;
  uint64_t cache_capacity = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t slowlog_capacity = 0;
  uint64_t slowlog_pending = 0;
  std::vector<std::string> datasets;  // Sorted.

  // Sums every member except `shards` (a topology fact, not a tally) and
  // merges `datasets` as a sorted union. Order-independent.
  void Add(const ServerReading& other);
};

std::string FormatStats(int64_t id, const ServerReading& reading);
bool ParseStats(const std::string& line, ServerReading* reading,
                std::string* error);

// The warp-metrics-v1 body (obs/exposition.h) in its JSON envelope; the
// cache and slowlog members ride along as the exposition's extras.
std::string FormatMetrics(int64_t id, const ServerReading& reading);
bool ParseMetrics(const std::string& line, ServerReading* reading,
                  std::string* error);

std::string FormatSlowlog(int64_t id, uint64_t capacity,
                          const std::vector<SlowQueryRecord>& entries);
bool ParseSlowlog(const std::string& line, uint64_t* capacity,
                  std::vector<SlowQueryRecord>* entries, std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_REPLIES_H_
