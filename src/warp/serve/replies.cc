#include "warp/serve/replies.h"

#include <algorithm>
#include <iterator>

#include "warp/obs/exposition.h"
#include "warp/obs/json_writer.h"
#include "warp/obs/report.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {

namespace {

// The counters `stats` reports: engine, shard, snapshot, admission and
// cluster work. The serve_cache_* registry counters are left out — the
// server's own cache members are the single source of truth there.
constexpr obs::Counter kStatsCounters[] = {
    obs::Counter::kServeRequests,         obs::Counter::kServeBatches,
    obs::Counter::kServeBatchedQueries,   obs::Counter::kServeDeadlineExceeded,
    obs::Counter::kServeShardScans,       obs::Counter::kServeSnapshotSaves,
    obs::Counter::kServeSnapshotLoads,    obs::Counter::kServeShed,
    obs::Counter::kClusterScatters,       obs::Counter::kClusterWorkerRestarts,
    obs::Counter::kClusterPartialReplies};

// The members `metrics` carries as exposition extras, in render order.
struct MetricsExtra {
  const char* name;
  bool is_counter;
  uint64_t ServerReading::*member;
};
constexpr MetricsExtra kMetricsExtras[] = {
    {"serve_result_cache_size", false, &ServerReading::cache_size},
    {"serve_result_cache_capacity", false, &ServerReading::cache_capacity},
    {"serve_result_cache_hits", true, &ServerReading::cache_hits},
    {"serve_result_cache_misses", true, &ServerReading::cache_misses},
    {"serve_result_cache_evictions", true, &ServerReading::cache_evictions},
    {"serve_slowlog_pending", false, &ServerReading::slowlog_pending}};

obs::JsonWriter& BeginReply(obs::JsonWriter& writer, int64_t id,
                            const char* op) {
  return writer.BeginObject()
      .Key("id").Int(id)
      .Key("ok").Bool(true)
      .Key("op").String(op);
}

// Parses an ok:true reply object; an ok:false reply fails with its error.
bool ParseOkReply(const std::string& line, JsonValue* root,
                  std::string* error) {
  if (!ParseJson(line, root, error)) {
    *error = "malformed reply: " + *error;
    return false;
  }
  if (!root->is_object()) {
    *error = "reply must be a JSON object";
    return false;
  }
  if (!root->BoolOr("ok", false)) {
    *error = root->StringOr("error", "reply not ok");
    return false;
  }
  return true;
}

uint64_t UintOr0(const JsonValue* object, const std::string& key) {
  return object == nullptr ? 0
                           : static_cast<uint64_t>(object->NumberOr(key, 0.0));
}

// The inverse of obs::WriteHistogramObject (count, sum and the sparse
// buckets; the percentiles are derived). Each le bound is matched against
// the bound's own double image, so the lookup is exact.
obs::HistogramData ParseHistogramObject(const JsonValue& object) {
  obs::HistogramData data;
  data.count = UintOr0(&object, "count");
  data.sum = UintOr0(&object, "sum");
  const JsonValue* buckets = object.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) return data;
  for (const JsonValue& entry : buckets->AsArray()) {
    const double le = entry.NumberOr("le", -1.0);
    for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (static_cast<double>(obs::HistogramBucketBound(i)) == le) {
        data.buckets[i] += UintOr0(&entry, "n");
        break;
      }
    }
  }
  return data;
}

}  // namespace

std::string FormatAck(int64_t id, const char* op) {
  obs::JsonWriter writer;
  BeginReply(writer, id, op).EndObject();
  return writer.TakeOutput();
}

std::string FormatInfo(int64_t id, const DatasetInfo& info) {
  obs::JsonWriter writer;
  BeginReply(writer, id, "info")
      .Key("dataset").String(info.dataset)
      .Key("size").Uint(info.size)
      .Key("length").Uint(info.length)
      .Key("epoch").Uint(info.epoch)
      .Key("shards").Uint(info.shards)
      .Key("port").Int(info.port);
  if (info.worker_shard >= 0) writer.Key("worker_shard").Int(info.worker_shard);
  writer.Key("bands").BeginArray();
  for (uint64_t band : info.bands) writer.Uint(band);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

bool ParseInfo(const std::string& line, DatasetInfo* info,
               std::string* error) {
  JsonValue root;
  if (!ParseOkReply(line, &root, error)) return false;
  info->dataset = root.StringOr("dataset", "");
  info->size = UintOr0(&root, "size");
  info->length = UintOr0(&root, "length");
  info->epoch = UintOr0(&root, "epoch");
  info->shards = UintOr0(&root, "shards");
  info->port = static_cast<int64_t>(root.NumberOr("port", 0.0));
  info->worker_shard = static_cast<int64_t>(root.NumberOr("worker_shard", -1));
  info->bands.clear();
  if (const JsonValue* bands = root.Find("bands"); bands && bands->is_array()) {
    for (const JsonValue& band : bands->AsArray()) {
      info->bands.push_back(static_cast<uint64_t>(band.AsNumber()));
    }
  }
  return true;
}

void ServerReading::Add(const ServerReading& other) {
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    counters.values[i] += other.counters.values[i];
  }
  for (size_t i = 0; i < obs::kNumGauges; ++i) {
    gauges.values[i] += other.gauges.values[i];
  }
  for (size_t h = 0; h < obs::kNumHistograms; ++h) {
    obs::HistogramData& into = histograms.series[h];
    const obs::HistogramData& from = other.histograms.series[h];
    into.count += from.count;
    into.sum += from.sum;
    for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
      into.buckets[i] += from.buckets[i];
    }
  }
  cache_size += other.cache_size;
  cache_capacity += other.cache_capacity;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  slowlog_capacity += other.slowlog_capacity;
  slowlog_pending += other.slowlog_pending;
  std::vector<std::string> names;
  std::set_union(datasets.begin(), datasets.end(), other.datasets.begin(),
                 other.datasets.end(), std::back_inserter(names));
  datasets = std::move(names);
}

std::string FormatStats(int64_t id, const ServerReading& reading) {
  obs::JsonWriter writer;
  BeginReply(writer, id, "stats")
      .Key("profiling").Bool(obs::kProfilingEnabled)
      .Key("counters").BeginObject();
  for (obs::Counter counter : kStatsCounters) {
    writer.Key(obs::CounterName(counter)).Uint(reading.counters.Get(counter));
  }
  writer.EndObject()
      .Key("shards").BeginObject()
      .Key("count").Uint(reading.shards)
      .EndObject()
      .Key("cache").BeginObject()
      .Key("size").Uint(reading.cache_size)
      .Key("capacity").Uint(reading.cache_capacity)
      .Key("hits").Uint(reading.cache_hits)
      .Key("misses").Uint(reading.cache_misses)
      .Key("evictions").Uint(reading.cache_evictions)
      .EndObject()
      .Key("gauges").BeginObject();
  for (size_t g = 0; g < obs::kNumGauges; ++g) {
    writer.Key(obs::GaugeName(static_cast<obs::Gauge>(g)))
        .Int(reading.gauges.values[g]);
  }
  writer.EndObject().Key("histograms").BeginObject();
  for (size_t h = 0; h < obs::kNumHistograms; ++h) {
    const obs::HistogramData& data = reading.histograms.series[h];
    if (data.Empty()) continue;  // Sparse, like bench counters.
    writer.Key(obs::HistogramName(static_cast<obs::Histogram>(h)));
    obs::WriteHistogramObject(writer, data);
  }
  writer.EndObject()
      .Key("slowlog").BeginObject()
      .Key("capacity").Uint(reading.slowlog_capacity)
      .Key("pending").Uint(reading.slowlog_pending)
      .EndObject()
      .Key("datasets").BeginArray();
  for (const std::string& name : reading.datasets) writer.String(name);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

bool ParseStats(const std::string& line, ServerReading* reading,
                std::string* error) {
  JsonValue root;
  if (!ParseOkReply(line, &root, error)) return false;
  *reading = ServerReading{};
  const JsonValue* counters = root.Find("counters");
  for (obs::Counter counter : kStatsCounters) {
    reading->counters.values[static_cast<size_t>(counter)] =
        UintOr0(counters, obs::CounterName(counter));
  }
  const JsonValue* gauges = root.Find("gauges");
  for (size_t g = 0; g < obs::kNumGauges; ++g) {
    reading->gauges.values[g] = static_cast<int64_t>(
        gauges == nullptr
            ? 0.0
            : gauges->NumberOr(obs::GaugeName(static_cast<obs::Gauge>(g)), 0));
  }
  if (const JsonValue* histograms = root.Find("histograms")) {
    for (size_t h = 0; h < obs::kNumHistograms; ++h) {
      const JsonValue* object =
          histograms->Find(obs::HistogramName(static_cast<obs::Histogram>(h)));
      if (object != nullptr) {
        reading->histograms.series[h] = ParseHistogramObject(*object);
      }
    }
  }
  reading->shards = UintOr0(root.Find("shards"), "count");
  const JsonValue* cache = root.Find("cache");
  reading->cache_size = UintOr0(cache, "size");
  reading->cache_capacity = UintOr0(cache, "capacity");
  reading->cache_hits = UintOr0(cache, "hits");
  reading->cache_misses = UintOr0(cache, "misses");
  reading->cache_evictions = UintOr0(cache, "evictions");
  const JsonValue* slowlog = root.Find("slowlog");
  reading->slowlog_capacity = UintOr0(slowlog, "capacity");
  reading->slowlog_pending = UintOr0(slowlog, "pending");
  if (const JsonValue* datasets = root.Find("datasets");
      datasets && datasets->is_array()) {
    for (const JsonValue& name : datasets->AsArray()) {
      reading->datasets.push_back(name.AsString());
    }
  }
  return true;
}

std::string FormatMetrics(int64_t id, const ServerReading& reading) {
  std::vector<obs::ExpositionExtra> extras;
  for (const MetricsExtra& extra : kMetricsExtras) {
    extras.push_back({extra.name, extra.is_counter,
                      static_cast<int64_t>(reading.*extra.member)});
  }
  obs::JsonWriter writer;
  BeginReply(writer, id, "metrics")
      .Key("format").String("warp-metrics-v1")
      .Key("body").String(obs::RenderMetricsText(
          reading.counters, reading.histograms, reading.gauges, extras))
      .EndObject();
  return writer.TakeOutput();
}

bool ParseMetrics(const std::string& line, ServerReading* reading,
                  std::string* error) {
  JsonValue root;
  if (!ParseOkReply(line, &root, error)) return false;
  *reading = ServerReading{};
  std::vector<obs::ExpositionExtra> extras;
  if (!obs::ParseMetricsText(root.StringOr("body", ""), &reading->counters,
                             &reading->histograms, &reading->gauges, &extras,
                             error)) {
    return false;
  }
  for (const obs::ExpositionExtra& extra : extras) {
    const auto known = std::find_if(
        std::begin(kMetricsExtras), std::end(kMetricsExtras),
        [&](const MetricsExtra& m) { return extra.name == m.name; });
    if (known == std::end(kMetricsExtras)) {
      *error = "unknown metric 'warp_" + extra.name + "'";
      return false;
    }
    reading->*known->member = static_cast<uint64_t>(extra.value);
  }
  return true;
}

std::string FormatSlowlog(int64_t id, uint64_t capacity,
                          const std::vector<SlowQueryRecord>& entries) {
  obs::JsonWriter writer;
  BeginReply(writer, id, "slowlog")
      .Key("capacity").Uint(capacity)
      .Key("entries").BeginArray();
  for (const SlowQueryRecord& record : entries) {
    writer.BeginObject()
        .Key("id").Int(record.id)
        .Key("op").String(record.op)
        .Key("dataset").String(record.dataset)
        .Key("measure").String(record.measure)
        .Key("engine_us").Double(record.engine_us)
        .Key("total_us").Double(record.total_us)
        .Key("cells").Uint(record.cells)
        .Key("scanned").Uint(record.scanned)
        .Key("total").Uint(record.total)
        .Key("partial").Bool(record.partial)
        .EndObject();
  }
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

bool ParseSlowlog(const std::string& line, uint64_t* capacity,
                  std::vector<SlowQueryRecord>* entries, std::string* error) {
  JsonValue root;
  if (!ParseOkReply(line, &root, error)) return false;
  *capacity = UintOr0(&root, "capacity");
  entries->clear();
  const JsonValue* list = root.Find("entries");
  if (list == nullptr || !list->is_array()) return true;
  for (const JsonValue& e : list->AsArray()) {
    SlowQueryRecord record;
    record.id = static_cast<int64_t>(e.NumberOr("id", 0.0));
    record.op = e.StringOr("op", "");
    record.dataset = e.StringOr("dataset", "");
    record.measure = e.StringOr("measure", "");
    record.engine_us = e.NumberOr("engine_us", 0.0);
    record.total_us = e.NumberOr("total_us", 0.0);
    record.cells = UintOr0(&e, "cells");
    record.scanned = UintOr0(&e, "scanned");
    record.total = UintOr0(&e, "total");
    record.partial = e.BoolOr("partial", false);
    entries->push_back(std::move(record));
  }
  return true;
}

}  // namespace serve
}  // namespace warp
