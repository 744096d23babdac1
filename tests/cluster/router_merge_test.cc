// Pins how the router merges its workers' observability replies: the
// cluster's `stats`, `metrics` and `slowlog` must equal the sum of what
// each worker reports on its own plus what the router process recorded
// itself (docs/OBSERVABILITY.md). Counters, cache tallies, the slowlog
// summary and the engine-side histograms are sums; datasets are a sorted
// union; slowlog entries from every worker come back as one list sorted
// by engine time.
//
// Only readings that the observing requests cannot perturb are compared:
// parse-stage samples and connection gauges move with every control line
// and every connection, so they are left out.

#include "warp/cluster/router.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/supervisor.h"
#include "warp/common/metrics.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/wire.h"

namespace warp {
namespace cluster {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kSeries = 30;
constexpr size_t kLength = 48;

// Histograms only the engine records: untouched by control traffic.
const char* const kEngineHistograms[] = {
    "serve_latency_1nn_us",        "serve_latency_knn_us",
    "serve_latency_range_us",      "serve_latency_dist_us",
    "serve_latency_subsequence_us", "serve_cells_per_query",
    "serve_stage_cache_lookup_us", "serve_stage_engine_scan_us",
    "serve_stage_merge_us"};

std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/router_merge_snaps";
    std::filesystem::create_directories(path);
    serve::DatasetStore store(1);
    const auto stored = store.Register(
        "d", gen::RandomWalkDataset(kSeries, kLength, 5), {5});
    std::string error;
    EXPECT_TRUE(serve::SaveSnapshot(*stored, path + "/d.wsnap", &error))
        << error;
    return path;
  }();
  return dir;
}

std::vector<std::string> QueryMix() {
  const Dataset queries = gen::RandomWalkDataset(3, kLength, 17);
  std::vector<std::string> lines;
  int64_t id = 1;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const char* op : {"1nn", "knn", "range", "dist", "subsequence"}) {
      obs::JsonWriter writer;
      writer.BeginObject()
          .Key("id").Int(id++)
          .Key("op").String(op)
          .Key("dataset").String("d");
      if (std::string(op) == "knn") writer.Key("k").Uint(3);
      if (std::string(op) == "range") writer.Key("threshold").Double(60.0);
      if (std::string(op) == "dist" || std::string(op) == "subsequence") {
        writer.Key("index").Uint(q * 7 + 2);
      }
      const size_t length = std::string(op) == "subsequence" ? 12 : kLength;
      writer.Key("query").BeginArray();
      for (size_t i = 0; i < length; ++i) writer.Double(queries[q][i]);
      writer.EndArray().EndObject();
      lines.push_back(writer.TakeOutput());
    }
  }
  return lines;
}

std::vector<std::string> RoundTrip(serve::TcpConn& conn,
                                   const std::vector<std::string>& lines) {
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  EXPECT_TRUE(conn.WriteAll(payload));
  std::vector<std::string> responses;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line;
    if (!conn.ReadLine(&line)) {
      ADD_FAILURE() << "connection closed after " << i << " responses";
      break;
    }
    responses.push_back(std::move(line));
  }
  return responses;
}

serve::JsonValue Ask(int port, const std::string& line) {
  std::string error;
  serve::TcpConn conn = serve::ConnectLoopback(port, &error);
  EXPECT_TRUE(conn.valid()) << error;
  const std::vector<std::string> reply = RoundTrip(conn, {line});
  serve::JsonValue value;
  EXPECT_EQ(reply.size(), 1u);
  if (reply.size() == 1) {
    EXPECT_TRUE(serve::ParseJson(reply[0], &value, &error)) << error;
    EXPECT_TRUE(value.BoolOr("ok", false)) << reply[0];
  }
  return value;
}

uint64_t Member(const serve::JsonValue& object, const std::string& path,
                const std::string& key) {
  const serve::JsonValue* parent = object.Find(path);
  return parent == nullptr
             ? 0
             : static_cast<uint64_t>(parent->NumberOr(key, 0.0));
}

// count, sum and {le: n} of one histogram in a stats reply (zeros when
// the reply leaves it out as empty).
std::map<std::string, uint64_t> HistogramFields(const serve::JsonValue& stats,
                                                const std::string& name) {
  std::map<std::string, uint64_t> fields;
  const serve::JsonValue* all = stats.Find("histograms");
  const serve::JsonValue* h = all == nullptr ? nullptr : all->Find(name);
  if (h == nullptr) return fields;
  fields["count"] = static_cast<uint64_t>(h->NumberOr("count", 0.0));
  fields["sum"] = static_cast<uint64_t>(h->NumberOr("sum", 0.0));
  for (const serve::JsonValue& bucket : h->Find("buckets")->AsArray()) {
    fields["le" + std::to_string(static_cast<uint64_t>(
                      bucket.NumberOr("le", 0.0)))] +=
        static_cast<uint64_t>(bucket.NumberOr("n", 0.0));
  }
  return fields;
}

std::map<std::string, uint64_t> HistogramFields(
    const obs::HistogramData& data) {
  std::map<std::string, uint64_t> fields;
  if (data.Empty()) return fields;
  fields["count"] = data.count;
  fields["sum"] = data.sum;
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (data.buckets[i] == 0) continue;
    fields["le" + std::to_string(obs::HistogramBucketBound(i))] =
        data.buckets[i];
  }
  return fields;
}

void AddFields(const std::map<std::string, uint64_t>& from,
               std::map<std::string, uint64_t>* into) {
  for (const auto& [key, value] : from) (*into)[key] += value;
}

// Sample name -> value for every sample line of a metrics body.
std::map<std::string, int64_t> Samples(const serve::JsonValue& metrics) {
  std::map<std::string, int64_t> samples;
  std::istringstream body(metrics.StringOr("body", ""));
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    samples[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  return samples;
}

// The cumulative count a histogram's exposition implies at `le`: the
// emitted bucket line, or the total once past the highest bucket.
int64_t Cumulative(const std::map<std::string, int64_t>& samples,
                   const std::string& name, const std::string& le) {
  const auto it = samples.find(name + "_bucket{le=\"" + le + "\"}");
  if (it != samples.end()) return it->second;
  const auto count = samples.find(name + "_count");
  return count == samples.end() ? 0 : count->second;
}

TEST(RouterMergeTest, MergedRepliesAreTheWorkersPlusTheRouter) {
  SupervisorOptions sup;
  sup.shards = kShards;
  sup.cache_capacity = 64;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  sup.ping_interval_ms = 0;  // No liveness traffic between readings.
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;

  // Two passes: the second is answered from the workers' caches.
  const std::vector<std::string> lines = QueryMix();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& reply : RoundTrip(conn, lines)) {
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
  }

  // The workers' own readings, then the router process's registries
  // (the router runs in this process), then the merged replies.
  std::vector<serve::JsonValue> worker_stats, worker_metrics;
  for (const WorkerStatus& status : supervisor.StatusAll()) {
    ASSERT_TRUE(status.up);
    worker_stats.push_back(Ask(status.port, R"({"id":1,"op":"stats"})"));
    worker_metrics.push_back(Ask(status.port, R"({"id":2,"op":"metrics"})"));
  }
  const obs::MetricsSnapshot local_counters = obs::SnapshotCounters();
  const obs::HistogramSnapshot local_histograms = obs::SnapshotHistograms();
  const std::vector<std::string> merged_lines = RoundTrip(
      conn, {R"({"id":3,"op":"stats"})", R"({"id":4,"op":"metrics"})",
             R"({"id":5,"op":"slowlog"})"});
  ASSERT_EQ(merged_lines.size(), 3u);
  serve::JsonValue stats, metrics, slowlog;
  ASSERT_TRUE(serve::ParseJson(merged_lines[0], &stats, &error)) << error;
  ASSERT_TRUE(serve::ParseJson(merged_lines[1], &metrics, &error)) << error;
  ASSERT_TRUE(serve::ParseJson(merged_lines[2], &slowlog, &error)) << error;
  ASSERT_TRUE(stats.BoolOr("ok", false)) << merged_lines[0];
  ASSERT_TRUE(metrics.BoolOr("ok", false)) << merged_lines[1];
  ASSERT_TRUE(slowlog.BoolOr("ok", false)) << merged_lines[2];

  // stats: counters, cache, slowlog summary, shards, datasets.
  const serve::JsonValue* counters = stats.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().size(), 11u);
  for (const auto& [name, value] : counters->AsObject()) {
    uint64_t expected = 0;
    for (size_t c = 0; c < obs::kNumCounters; ++c) {
      const obs::Counter counter = static_cast<obs::Counter>(c);
      if (name == obs::CounterName(counter)) {
        expected = local_counters.Get(counter);
      }
    }
    for (const serve::JsonValue& w : worker_stats) {
      expected += Member(w, "counters", name);
    }
    EXPECT_EQ(static_cast<uint64_t>(value.AsNumber()), expected) << name;
  }
  if (obs::kProfilingEnabled) {
    EXPECT_GT(Member(stats, "counters", "serve_requests"), 0u);
  }
  for (const char* key : {"size", "capacity", "hits", "misses", "evictions"}) {
    uint64_t expected = 0;
    for (const serve::JsonValue& w : worker_stats) {
      expected += Member(w, "cache", key);
    }
    EXPECT_EQ(Member(stats, "cache", key), expected) << "cache." << key;
  }
  EXPECT_GT(Member(stats, "cache", "hits"), 0u);
  uint64_t slowlog_capacity = 0, slowlog_pending = 0;
  for (const serve::JsonValue& w : worker_stats) {
    slowlog_capacity += Member(w, "slowlog", "capacity");
    slowlog_pending += Member(w, "slowlog", "pending");
  }
  EXPECT_EQ(Member(stats, "slowlog", "capacity"), slowlog_capacity);
  EXPECT_EQ(Member(stats, "slowlog", "pending"), slowlog_pending);
  EXPECT_GT(slowlog_pending, 0u);
  EXPECT_EQ(Member(stats, "shards", "count"), kShards);
  std::set<std::string> datasets;
  for (const serve::JsonValue& w : worker_stats) {
    for (const serve::JsonValue& name : w.Find("datasets")->AsArray()) {
      datasets.insert(name.AsString());
    }
  }
  std::vector<std::string> merged_datasets;
  for (const serve::JsonValue& name : stats.Find("datasets")->AsArray()) {
    merged_datasets.push_back(name.AsString());
  }
  EXPECT_EQ(merged_datasets,
            std::vector<std::string>(datasets.begin(), datasets.end()));

  // stats: engine-side histograms, bucket by bucket.
  for (const char* name : kEngineHistograms) {
    std::map<std::string, uint64_t> expected;
    for (size_t h = 0; h < obs::kNumHistograms; ++h) {
      const obs::Histogram histogram = static_cast<obs::Histogram>(h);
      if (std::string(name) == obs::HistogramName(histogram)) {
        expected = HistogramFields(local_histograms.Get(histogram));
      }
    }
    for (const serve::JsonValue& w : worker_stats) {
      AddFields(HistogramFields(w, name), &expected);
    }
    EXPECT_EQ(HistogramFields(stats, name), expected) << name;
  }

  // metrics: every registry counter, the per-server extras, and the
  // engine-side histogram samples.
  const std::map<std::string, int64_t> merged = Samples(metrics);
  std::vector<std::map<std::string, int64_t>> per_worker;
  for (const serve::JsonValue& w : worker_metrics) {
    per_worker.push_back(Samples(w));
  }
  for (size_t c = 0; c < obs::kNumCounters; ++c) {
    const obs::Counter counter = static_cast<obs::Counter>(c);
    const std::string sample =
        std::string("warp_") + obs::CounterName(counter) + "_total";
    int64_t expected = static_cast<int64_t>(local_counters.Get(counter));
    for (const auto& w : per_worker) expected += w.at(sample);
    ASSERT_EQ(merged.count(sample), 1u) << sample;
    EXPECT_EQ(merged.at(sample), expected) << sample;
  }
  for (const char* sample :
       {"warp_serve_result_cache_size", "warp_serve_result_cache_capacity",
        "warp_serve_result_cache_hits_total",
        "warp_serve_result_cache_misses_total",
        "warp_serve_result_cache_evictions_total",
        "warp_serve_slowlog_pending"}) {
    int64_t expected = 0;
    for (const auto& w : per_worker) expected += w.at(sample);
    ASSERT_EQ(merged.count(sample), 1u) << sample;
    EXPECT_EQ(merged.at(sample), expected) << sample;
  }
  for (const char* name : kEngineHistograms) {
    const std::string family = std::string("warp_") + name;
    for (const auto& [sample, value] : merged) {
      if (sample.rfind(family + "_", 0) != 0) continue;
      int64_t expected = 0;
      const std::string rest = sample.substr(family.size());
      for (size_t h = 0; h < obs::kNumHistograms; ++h) {
        const obs::Histogram histogram = static_cast<obs::Histogram>(h);
        if (std::string(name) != obs::HistogramName(histogram)) continue;
        const obs::HistogramData& data = local_histograms.Get(histogram);
        if (rest == "_sum") {
          expected = static_cast<int64_t>(data.sum);
        } else if (rest == "_count" || rest == "_bucket{le=\"+Inf\"}") {
          expected = static_cast<int64_t>(data.count);
        } else {
          const uint64_t le = std::stoull(rest.substr(12));
          for (size_t i = 0; i < obs::kHistogramBuckets &&
                             obs::HistogramBucketBound(i) <= le;
               ++i) {
            expected += static_cast<int64_t>(data.buckets[i]);
          }
        }
      }
      for (const auto& w : per_worker) {
        if (rest == "_sum" || rest == "_count") {
          const auto it = w.find(sample);
          expected += it == w.end() ? 0 : it->second;
        } else {
          const size_t open = rest.find('"') + 1;
          expected += Cumulative(w, family,
                                 rest.substr(open, rest.rfind('"') - open));
        }
      }
      EXPECT_EQ(value, expected) << sample;
    }
  }

  // slowlog: every worker's pending entries, one list, slowest first; the
  // drain reaches every worker.
  EXPECT_EQ(static_cast<uint64_t>(slowlog.NumberOr("capacity", -1)),
            slowlog_capacity);
  const std::vector<serve::JsonValue>& entries =
      slowlog.Find("entries")->AsArray();
  EXPECT_EQ(entries.size(), slowlog_pending);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].NumberOr("engine_us", 0),
              entries[i].NumberOr("engine_us", 0))
        << "entry " << i;
  }
  for (const serve::JsonValue& entry : entries) {
    const double id = entry.NumberOr("id", 0);
    EXPECT_GE(id, 1.0);
    EXPECT_LE(id, static_cast<double>(lines.size()));
    EXPECT_EQ(entry.StringOr("dataset", ""), "d");
  }
  for (const WorkerStatus& status : supervisor.StatusAll()) {
    EXPECT_EQ(Member(Ask(status.port, R"({"id":6,"op":"stats"})"), "slowlog",
                     "pending"),
              0u);
  }

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
