#include "warp/serve/protocol.h"

#include <cmath>

#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {

namespace {

bool ReadSizeT(const JsonValue& object, const std::string& key,
               size_t* value, std::string* error) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return true;  // Optional; keep default.
  if (!member->is_number() || member->AsNumber() < 0 ||
      std::floor(member->AsNumber()) != member->AsNumber()) {
    *error = "'" + key + "' must be a non-negative integer";
    return false;
  }
  *value = static_cast<size_t>(member->AsNumber());
  return true;
}

}  // namespace

bool ParseRequestLine(const std::string& line, ParsedLine* out,
                      std::string* error) {
  JsonValue root;
  if (!ParseJson(line, &root, error)) {
    *error = "malformed JSON: " + *error;
    return false;
  }
  if (!root.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  out->id = static_cast<int64_t>(root.NumberOr("id", 0.0));
  out->request.id = out->id;

  const std::string op = root.StringOr("op", "");
  if (op.empty()) {
    *error = "request missing 'op'";
    return false;
  }

  // Control operations.
  if (op == "ping") { out->control = ControlOp::kPing; return true; }
  if (op == "stats") { out->control = ControlOp::kStats; return true; }
  if (op == "metrics") { out->control = ControlOp::kMetrics; return true; }
  if (op == "slowlog") { out->control = ControlOp::kSlowlog; return true; }
  if (op == "shutdown") { out->control = ControlOp::kShutdown; return true; }
  if (op == "save_snapshot") {
    out->control = ControlOp::kSaveSnapshot;
    out->dataset = root.StringOr("dataset", "");
    out->path = root.StringOr("path", "");
    if (out->dataset.empty()) {
      *error = "'save_snapshot' requires 'dataset'";
      return false;
    }
    if (out->path.empty()) {
      *error = "'save_snapshot' requires 'path'";
      return false;
    }
    return true;
  }
  if (op == "load_snapshot") {
    out->control = ControlOp::kLoadSnapshot;
    out->dataset = root.StringOr("dataset", "");  // Optional rename.
    out->path = root.StringOr("path", "");
    if (out->path.empty()) {
      *error = "'load_snapshot' requires 'path'";
      return false;
    }
    return true;
  }
  if (op == "info" || op == "load") {
    out->control = op == "info" ? ControlOp::kInfo : ControlOp::kLoad;
    out->dataset = root.StringOr("dataset", "");
    if (out->dataset.empty()) {
      *error = "'" + op + "' requires 'dataset'";
      return false;
    }
    if (op == "load") {
      out->path = root.StringOr("path", "");
      if (out->path.empty()) {
        *error = "'load' requires 'path'";
        return false;
      }
      if (const JsonValue* bands = root.Find("bands")) {
        if (!bands->is_array()) {
          *error = "'bands' must be an array of window fractions";
          return false;
        }
        for (const JsonValue& band : bands->AsArray()) {
          if (!band.is_number() || band.AsNumber() < 0) {
            *error = "'bands' entries must be non-negative numbers";
            return false;
          }
          out->band_fractions.push_back(band.AsNumber());
        }
      }
    }
    return true;
  }

  // Engine queries.
  out->control = ControlOp::kNone;
  ServeRequest& request = out->request;
  if (!ParseQueryOp(op, &request.op)) {
    *error = "unknown op: '" + op + "'";
    return false;
  }
  request.dataset = root.StringOr("dataset", "");
  if (request.dataset.empty()) {
    *error = "query missing 'dataset'";
    return false;
  }
  request.measure = root.StringOr("measure", "cdtw");

  MeasureParams& params = request.params;
  params.window_fraction = root.NumberOr("window", params.window_fraction);
  if (const JsonValue* band = root.Find("band")) {
    if (!band->is_number() || band->AsNumber() < 0) {
      *error = "'band' must be a non-negative cell count";
      return false;
    }
    params.band_cells = static_cast<long>(band->AsNumber());
  }
  const std::string cost = root.StringOr("cost", "squared");
  if (cost == "squared") {
    params.cost = CostKind::kSquared;
  } else if (cost == "absolute") {
    params.cost = CostKind::kAbsolute;
  } else {
    *error = "unknown cost: '" + cost + "'";
    return false;
  }
  params.wdtw_g = root.NumberOr("g", params.wdtw_g);
  params.wdtw_full_band = root.BoolOr("full_band", params.wdtw_full_band);
  params.adtw_omega = root.NumberOr("omega", params.adtw_omega);
  params.adtw_ratio = root.NumberOr("ratio", params.adtw_ratio);
  params.lcss_epsilon = root.NumberOr("epsilon", params.lcss_epsilon);
  params.erp_gap = root.NumberOr("gap", params.erp_gap);
  params.msm_cost = root.NumberOr("c", params.msm_cost);
  if (!ReadSizeT(root, "radius", &params.fastdtw_radius, error)) return false;

  if (!ReadSizeT(root, "k", &request.k, error)) return false;
  if (!ReadSizeT(root, "index", &request.index, error)) return false;
  request.threshold = root.NumberOr("threshold", request.threshold);
  request.deadline_ms = root.NumberOr("deadline_ms", request.deadline_ms);
  request.znormalize = root.BoolOr("znorm", request.znormalize);
  request.trace = root.BoolOr("trace", request.trace);

  // Cluster scatter stamp: a router targets one worker's shard at one
  // dataset epoch; the worker refuses anything else (query_engine.cc).
  if (const JsonValue* shard = root.Find("shard")) {
    if (!shard->is_number() || shard->AsNumber() < 0 ||
        std::floor(shard->AsNumber()) != shard->AsNumber()) {
      *error = "'shard' must be a non-negative integer";
      return false;
    }
    request.shard_filter = static_cast<long>(shard->AsNumber());
  }
  size_t epoch = 0;
  if (!ReadSizeT(root, "shard_epoch", &epoch, error)) return false;
  request.require_epoch = epoch;

  const JsonValue* query = root.Find("query");
  if (query == nullptr || !query->is_array()) {
    *error = "query ops require a 'query' array of numbers";
    return false;
  }
  request.query.reserve(query->AsArray().size());
  for (const JsonValue& v : query->AsArray()) {
    if (!v.is_number()) {
      *error = "'query' entries must be numbers";
      return false;
    }
    request.query.push_back(v.AsNumber());
  }
  return true;
}

std::string FormatResponse(const ServeResponse& response) {
  // Serialization is the one stage that cannot time itself from outside
  // (the caller would have to re-serialize to measure it), so the clock
  // runs here: body first, then — only when the request asked for a
  // trace — the trace object goes last with the just-measured value.
  const Stopwatch serialize_watch;
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(response.id)
      .Key("ok").Bool(response.ok);
  if (!response.ok) {
    writer.Key("error").String(response.error).EndObject();
    return writer.TakeOutput();
  }
  writer.Key("op").String(QueryOpName(response.op));
  writer.Key("partial").Bool(response.partial);
  writer.Key("scanned").Uint(response.scanned);
  writer.Key("total").Uint(response.total);
  switch (response.op) {
    case QueryOp::k1Nn:
    case QueryOp::kKnn:
    case QueryOp::kRange:
      writer.Key("neighbors").BeginArray();
      for (const Neighbor& n : response.neighbors) {
        writer.BeginObject()
            .Key("index").Uint(n.index)
            .Key("label").Int(n.label)
            .Key("distance").Double(n.distance)
            .EndObject();
      }
      writer.EndArray();
      break;
    case QueryOp::kDist:
      writer.Key("distance").Double(response.distance);
      break;
    case QueryOp::kSubsequence:
      writer.Key("position").Uint(response.position);
      writer.Key("distance").Double(response.distance);
      break;
  }
  if (!response.shards_missing.empty()) {
    // Cluster degradation marker; absent from single-process servers,
    // so the pre-cluster response shape (and its goldens) is unchanged.
    writer.Key("shards_missing").BeginArray();
    for (const size_t shard : response.shards_missing) writer.Uint(shard);
    writer.EndArray();
  }
  const double serialize_us = serialize_watch.ElapsedMicros();
  WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageSerialize,
                           serialize_us);
  if (response.trace.requested) {
    // Wall-clock echo; never part of goldens or the cache key. `cells`
    // is the one deterministic member (DP work, 0 on cache hits).
    const StageTrace& t = response.trace;
    writer.Key("trace").BeginObject()
        .Key("cached").Bool(t.from_cache)
        .Key("parse_us").Double(t.parse_us)
        .Key("cache_us").Double(t.cache_us)
        .Key("queue_us").Double(t.queue_us)
        .Key("engine_us").Double(t.engine_us)
        .Key("merge_us").Double(t.merge_us)
        .Key("serialize_us").Double(serialize_us)
        .Key("cells").Uint(t.cells)
        .EndObject();
  }
  writer.EndObject();
  return writer.TakeOutput();
}

std::string FormatErrorLine(int64_t id, const std::string& error) {
  ServeResponse response;
  response.id = id;
  response.error = error;
  return FormatResponse(response);
}

UnstampedRequest FormatUnstampedRequest(const ServeRequest& request) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(request.id)
      .Key("op").String(QueryOpName(request.op))
      .Key("dataset").String(request.dataset)
      .Key("measure").String(request.measure);
  const MeasureParams& params = request.params;
  writer.Key("window").Double(params.window_fraction);
  if (params.band_cells >= 0) {
    writer.Key("band").Uint(static_cast<uint64_t>(params.band_cells));
  }
  writer.Key("cost").String(
      params.cost == CostKind::kSquared ? "squared" : "absolute");
  writer.Key("g").Double(params.wdtw_g);
  writer.Key("full_band").Bool(params.wdtw_full_band);
  writer.Key("omega").Double(params.adtw_omega);
  writer.Key("ratio").Double(params.adtw_ratio);
  writer.Key("epsilon").Double(params.lcss_epsilon);
  writer.Key("gap").Double(params.erp_gap);
  writer.Key("c").Double(params.msm_cost);
  writer.Key("radius").Uint(params.fastdtw_radius);
  writer.Key("k").Uint(request.k);
  writer.Key("index").Uint(request.index);
  writer.Key("threshold").Double(request.threshold);
  writer.Key("deadline_ms").Double(request.deadline_ms);
  writer.Key("znorm").Bool(request.znormalize);
  writer.Key("trace").Bool(request.trace);
  UnstampedRequest out;
  out.stamp_at = writer.size();
  writer.Key("query").BeginArray();
  for (const double value : request.query) writer.Double(value);
  writer.EndArray().EndObject();
  out.text = writer.TakeOutput();
  return out;
}

void AppendStampedRequest(const UnstampedRequest& request, long shard,
                          uint64_t epoch, std::string* out) {
  out->append(request.text, 0, request.stamp_at);
  if (shard >= 0) {
    out->append(",\"shard\":");
    out->append(std::to_string(shard));
  }
  if (epoch != 0) {
    out->append(",\"shard_epoch\":");
    out->append(std::to_string(epoch));
  }
  out->append(request.text, request.stamp_at);
}

std::string FormatRequest(const ServeRequest& request) {
  std::string line;
  AppendStampedRequest(FormatUnstampedRequest(request), request.shard_filter,
                       request.require_epoch, &line);
  return line;
}

bool ParseResponseLine(const std::string& line, ServeResponse* out,
                       std::string* error) {
  JsonValue root;
  if (!ParseJson(line, &root, error)) {
    *error = "malformed response JSON: " + *error;
    return false;
  }
  if (!root.is_object()) {
    *error = "response must be a JSON object";
    return false;
  }
  out->id = static_cast<int64_t>(root.NumberOr("id", 0.0));
  out->ok = root.BoolOr("ok", false);
  if (!out->ok) {
    out->error = root.StringOr("error", "unknown error");
    return true;
  }
  const std::string op = root.StringOr("op", "");
  if (!ParseQueryOp(op, &out->op)) {
    *error = "response has unknown op: '" + op + "'";
    return false;
  }
  out->partial = root.BoolOr("partial", false);
  out->scanned = static_cast<uint64_t>(root.NumberOr("scanned", 0.0));
  out->total = static_cast<uint64_t>(root.NumberOr("total", 0.0));
  if (const JsonValue* neighbors = root.Find("neighbors")) {
    if (!neighbors->is_array()) {
      *error = "'neighbors' must be an array";
      return false;
    }
    out->neighbors.reserve(neighbors->AsArray().size());
    for (const JsonValue& entry : neighbors->AsArray()) {
      if (!entry.is_object()) {
        *error = "'neighbors' entries must be objects";
        return false;
      }
      Neighbor neighbor;
      neighbor.index = static_cast<size_t>(entry.NumberOr("index", 0.0));
      neighbor.label = static_cast<int>(entry.NumberOr("label", 0.0));
      neighbor.distance = entry.NumberOr("distance", 0.0);
      out->neighbors.push_back(neighbor);
    }
  }
  out->distance = root.NumberOr("distance", 0.0);
  out->position = static_cast<size_t>(root.NumberOr("position", 0.0));
  if (const JsonValue* missing = root.Find("shards_missing")) {
    if (!missing->is_array()) {
      *error = "'shards_missing' must be an array";
      return false;
    }
    for (const JsonValue& shard : missing->AsArray()) {
      if (!shard.is_number()) {
        *error = "'shards_missing' entries must be numbers";
        return false;
      }
      out->shards_missing.push_back(static_cast<size_t>(shard.AsNumber()));
    }
  }
  return true;
}

}  // namespace serve
}  // namespace warp
