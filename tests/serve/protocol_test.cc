// Wire-protocol tests: request-line parsing (valid, malformed, hostile)
// and response formatting, including the double round-trip guarantee the
// loopback golden tests build on.

#include "warp/serve/protocol.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "warp/serve/replies.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {
namespace {

TEST(ProtocolTest, ParsesFullQueryLine) {
  ParsedLine parsed;
  std::string error;
  const std::string line =
      R"({"id": 7, "op": "knn", "dataset": "train", "measure": "cdtw",)"
      R"( "window": 0.2, "k": 3, "znorm": false, "deadline_ms": 12.5,)"
      R"( "query": [1.0, 2.5, -3.0]})";
  ASSERT_TRUE(ParseRequestLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.control, ControlOp::kNone);
  EXPECT_EQ(parsed.id, 7);
  EXPECT_EQ(parsed.request.id, 7);
  EXPECT_EQ(parsed.request.op, QueryOp::kKnn);
  EXPECT_EQ(parsed.request.dataset, "train");
  EXPECT_EQ(parsed.request.measure, "cdtw");
  EXPECT_EQ(parsed.request.params.window_fraction, 0.2);
  EXPECT_EQ(parsed.request.k, 3u);
  EXPECT_FALSE(parsed.request.znormalize);
  EXPECT_EQ(parsed.request.deadline_ms, 12.5);
  EXPECT_EQ(parsed.request.query, (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST(ProtocolTest, DefaultsMatchServeRequestDefaults) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [0.0, 1.0]})", &parsed,
      &error))
      << error;
  const ServeRequest defaults;
  EXPECT_EQ(parsed.request.measure, defaults.measure);
  EXPECT_EQ(parsed.request.params.window_fraction,
            defaults.params.window_fraction);
  EXPECT_EQ(parsed.request.k, defaults.k);
  EXPECT_EQ(parsed.request.znormalize, defaults.znormalize);
  EXPECT_EQ(parsed.request.deadline_ms, defaults.deadline_ms);
}

TEST(ProtocolTest, ParsesBandAsExplicitCellCount) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "band": 5, "query": [0.0]})", &parsed,
      &error))
      << error;
  EXPECT_EQ(parsed.request.params.band_cells, 5);
}

TEST(ProtocolTest, ParsesControlOps) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"id": 1, "op": "ping"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kPing);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "stats"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kStats);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "shutdown"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kShutdown);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "info", "dataset": "d"})", &parsed,
                               &error));
  EXPECT_EQ(parsed.control, ControlOp::kInfo);
  EXPECT_EQ(parsed.dataset, "d");

  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "load", "dataset": "d", "path": "/tmp/x.tsv",)"
      R"( "bands": [0.05, 0.1]})",
      &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kLoad);
  EXPECT_EQ(parsed.path, "/tmp/x.tsv");
  EXPECT_EQ(parsed.band_fractions, (std::vector<double>{0.05, 0.1}));
}

TEST(ProtocolTest, RejectsMalformedLines) {
  ParsedLine parsed;
  std::string error;
  EXPECT_FALSE(ParseRequestLine("not json", &parsed, &error));
  EXPECT_NE(error.find("malformed JSON"), std::string::npos);

  EXPECT_FALSE(ParseRequestLine("[1, 2]", &parsed, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"id": 3})", &parsed, &error));
  EXPECT_NE(error.find("missing 'op'"), std::string::npos);

  EXPECT_FALSE(
      ParseRequestLine(R"({"op": "frobnicate", "dataset": "d"})", &parsed,
                       &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
}

TEST(ProtocolTest, ErrorLinesStillCarryTheRequestId) {
  ParsedLine parsed;
  std::string error;
  EXPECT_FALSE(ParseRequestLine(R"({"id": 42, "op": "1nn"})", &parsed,
                                &error));
  EXPECT_EQ(parsed.id, 42);  // So the server can echo it back.
}

TEST(ProtocolTest, RejectsBadQueryFields) {
  ParsedLine parsed;
  std::string error;
  // Query ops need a dataset and a numeric query array.
  EXPECT_FALSE(ParseRequestLine(R"({"op": "1nn", "query": [1.0]})", &parsed,
                                &error));
  EXPECT_FALSE(ParseRequestLine(R"({"op": "1nn", "dataset": "d"})", &parsed,
                                &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": ["a"]})", &parsed, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "k": 1.5})", &parsed,
      &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "band": -1})", &parsed,
      &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "cost": "cubic"})",
      &parsed, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "load", "dataset": "d", "path": "p", "bands": [-0.1]})",
      &parsed, &error));
}

// The property the result cache and loopback golden tests rely on:
// a distance formatted by FormatResponse re-parses to identical bits.
TEST(ProtocolTest, DoublesSurviveTheWireBitForBit) {
  ServeResponse response;
  response.id = 5;
  response.ok = true;
  response.op = QueryOp::kDist;
  response.scanned = response.total = 1;
  response.distance = 1.0 / 3.0 * 7.000000001;

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  const JsonValue* distance = root.Find("distance");
  ASSERT_NE(distance, nullptr);
  EXPECT_EQ(distance->AsNumber(), response.distance);
}

// Number tokens at the edges of the double range read as strtod reads
// them: overflow to +-inf, underflow to 0 or the nearest subnormal.
TEST(ProtocolTest, WireNumbersAtTheEdgesOfTheDoubleRange) {
  const auto number = [](const std::string& text) {
    JsonValue root;
    std::string error;
    EXPECT_TRUE(ParseJson(text, &root, &error)) << text << ": " << error;
    EXPECT_TRUE(root.is_number()) << text;
    return root.AsNumber();
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(number("1e400"), inf);
  EXPECT_EQ(number("-1e400"), -inf);
  EXPECT_EQ(number("1e-400"), 0.0);
  EXPECT_FALSE(std::signbit(number("1e-400")));
  EXPECT_EQ(number("4.9e-324"), DBL_TRUE_MIN);
  EXPECT_EQ(number("-0"), 0.0);
  EXPECT_TRUE(std::signbit(number("-0")));
  EXPECT_EQ(number("1E+2"), 100.0);

  // The same tokens inside a query array.
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d",)"
      R"( "query": [1e400, -1e400, 1e-400, 4.9e-324, -0, 1E+2]})",
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.request.query.size(), 6u);
  EXPECT_EQ(parsed.request.query[0], inf);
  EXPECT_EQ(parsed.request.query[1], -inf);
  EXPECT_EQ(parsed.request.query[2], 0.0);
  EXPECT_EQ(parsed.request.query[3], DBL_TRUE_MIN);
  EXPECT_TRUE(std::signbit(parsed.request.query[4]));
  EXPECT_EQ(parsed.request.query[5], 100.0);
}

// strtod reads all of these; the JSON grammar does not, alone or in an
// array.
TEST(ProtocolTest, WireRejectsNumbersOutsideTheJsonGrammar) {
  for (const std::string text :
       {"01", "1.", ".5", "+1", "0x10", "nan", "inf"}) {
    JsonValue root;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &root, &error)) << text;
    EXPECT_FALSE(ParseJson("[" + text + "]", &root, &error)) << text;
    ParsedLine parsed;
    EXPECT_FALSE(ParseRequestLine(
        R"({"op": "1nn", "dataset": "d", "query": [)" + text + "]}", &parsed,
        &error))
        << text;
  }
}

TEST(ProtocolTest, FormatsNeighborLists) {
  ServeResponse response;
  response.id = 9;
  response.ok = true;
  response.op = QueryOp::kKnn;
  response.scanned = response.total = 10;
  response.neighbors.push_back({3, 1, 0.25});
  response.neighbors.push_back({7, 2, 0.5});

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  EXPECT_EQ(root.NumberOr("id", -1), 9.0);
  EXPECT_TRUE(root.BoolOr("ok", false));
  EXPECT_FALSE(root.BoolOr("partial", true));
  const JsonValue* neighbors = root.Find("neighbors");
  ASSERT_NE(neighbors, nullptr);
  ASSERT_TRUE(neighbors->is_array());
  ASSERT_EQ(neighbors->AsArray().size(), 2u);
  EXPECT_EQ(neighbors->AsArray()[0].NumberOr("index", -1), 3.0);
  EXPECT_EQ(neighbors->AsArray()[1].NumberOr("distance", -1), 0.5);
}

TEST(ProtocolTest, FormatsErrorsWithoutResultFields) {
  ServeResponse response;
  response.id = 2;
  response.ok = false;
  response.error = "unknown dataset: x";

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  EXPECT_FALSE(root.BoolOr("ok", true));
  EXPECT_EQ(root.StringOr("error", ""), "unknown dataset: x");
  EXPECT_EQ(root.Find("neighbors"), nullptr);

  ASSERT_TRUE(ParseJson(FormatErrorLine(11, "nope"), &root, &error)) << error;
  EXPECT_EQ(root.NumberOr("id", -1), 11.0);
  EXPECT_EQ(root.StringOr("error", ""), "nope");
}

TEST(ProtocolTest, QueryOpNamesRoundTrip) {
  for (QueryOp op : {QueryOp::k1Nn, QueryOp::kKnn, QueryOp::kRange,
                     QueryOp::kDist, QueryOp::kSubsequence}) {
    QueryOp parsed = QueryOp::k1Nn;
    ASSERT_TRUE(ParseQueryOp(QueryOpName(op), &parsed));
    EXPECT_EQ(parsed, op);
  }
  QueryOp ignored;
  EXPECT_FALSE(ParseQueryOp("2nn", &ignored));
}

// Each control-op reply parser inverts its writer: written again from
// the parsed reading, the reply is byte-identical.
TEST(ProtocolTest, ControlRepliesRenderParseRenderRoundTrip) {
  ServerReading reading;
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    reading.counters.values[i] = 5 * i + 2;
  }
  obs::HistogramData& latency = reading.histograms.series[0];
  latency.buckets[3] = 4;
  latency.buckets[11] = 1;
  latency.count = 5;
  latency.sum = 1500;
  reading.gauges.values[1] = 2;
  reading.shards = 3;
  reading.cache_size = 7;
  reading.cache_capacity = 64;
  reading.cache_hits = 9;
  reading.cache_misses = 11;
  reading.cache_evictions = 1;
  reading.slowlog_capacity = 32;
  reading.slowlog_pending = 4;
  reading.datasets = {"a", "b"};

  ServerReading parsed;
  std::string error;
  const std::string stats = FormatStats(7, reading);
  ASSERT_TRUE(ParseStats(stats, &parsed, &error)) << error;
  EXPECT_EQ(FormatStats(7, parsed), stats);
  const std::string metrics = FormatMetrics(8, reading);
  ASSERT_TRUE(ParseMetrics(metrics, &parsed, &error)) << error;
  EXPECT_EQ(FormatMetrics(8, parsed), metrics);

  std::vector<SlowQueryRecord> entries(2);
  entries[0].id = 4;
  entries[0].op = "knn";
  entries[0].dataset = "a";
  entries[0].measure = "cdtw";
  entries[0].engine_us = 12.375;
  entries[0].total_us = 13.5;
  entries[0].cells = 900;
  entries[0].scanned = 10;
  entries[0].total = 12;
  entries[0].partial = true;
  entries[1].id = 5;
  const std::string slowlog = FormatSlowlog(9, 32, entries);
  uint64_t capacity = 0;
  std::vector<SlowQueryRecord> parsed_entries;
  ASSERT_TRUE(ParseSlowlog(slowlog, &capacity, &parsed_entries, &error))
      << error;
  EXPECT_EQ(FormatSlowlog(9, capacity, parsed_entries), slowlog);

  DatasetInfo info;
  info.dataset = "a";
  info.size = 30;
  info.length = 48;
  info.epoch = 2;
  info.shards = 4;
  info.port = 7070;
  info.worker_shard = 1;
  info.bands = {2, 5};
  const std::string info_line = FormatInfo(10, info);
  DatasetInfo parsed_info;
  ASSERT_TRUE(ParseInfo(info_line, &parsed_info, &error)) << error;
  EXPECT_EQ(FormatInfo(10, parsed_info), info_line);

  // A refusal parses as a failure carrying the reply's own error text.
  EXPECT_FALSE(ParseStats(FormatErrorLine(3, "nope"), &parsed, &error));
  EXPECT_EQ(error, "nope");
}

}  // namespace
}  // namespace serve
}  // namespace warp
