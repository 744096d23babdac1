// The line-delimited JSON wire protocol (docs/SERVING.md).
//
// One request object per line in, one response object per line out,
// matched by the client-chosen `id`. This layer converts between wire
// lines and the typed structs in warp/serve/request.h; it never touches
// sockets or the engine. Doubles are emitted with
// JsonWriter::FormatDouble (the first of %.15g/%.16g/%.17g that
// round-trips) and parsed with warp::ParseDouble (strtod's results), both
// from warp/common/number_text.h, so distances survive the wire
// bit-for-bit — the loopback golden tests compare them with EXPECT_EQ.
// The number text is the same byte for byte as snprintf/strtod made it.

#ifndef WARP_SERVE_PROTOCOL_H_
#define WARP_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/serve/request.h"

namespace warp {
namespace serve {

// Operations the server answers without the query engine.
enum class ControlOp {
  kNone,      // Not a control op: `request` holds a query.
  kPing,      // Liveness check.
  kInfo,      // Describe a dataset (size, length, epoch, indexed bands).
  kStats,     // Counters, cache, gauges, histograms, slowlog summary.
  kMetrics,   // warp-metrics-v1 text exposition (docs/SERVING.md).
  kSlowlog,   // Drain the slow-query log (sorted by engine time, desc).
  kLoad,      // Load a UCR file into the store.
  kSaveSnapshot,  // Persist a dataset's index as a warp-snap-v1 file.
  kLoadSnapshot,  // Register a dataset from a warp-snap-v1 file.
  kShutdown,  // Finish open work and exit the serve loop.
};

// A parsed request line: either a control op or an engine query.
struct ParsedLine {
  int64_t id = 0;
  ControlOp control = ControlOp::kNone;
  ServeRequest request;          // Valid when control == kNone.
  std::string dataset;           // info / load / save_snapshot; optional
                                 // rename for load_snapshot.
  std::string path;              // load / save_snapshot / load_snapshot.
  std::vector<double> band_fractions;  // load ("bands" member).
};

// Parses one wire line. On failure returns false and fills *error with a
// client-presentable message (*out->id is still filled when the line had
// a readable id, so the error response can echo it).
bool ParseRequestLine(const std::string& line, ParsedLine* out,
                      std::string* error);

// Serializes a query response (ok or error) as one line, no trailing
// newline.
std::string FormatResponse(const ServeResponse& response);

// An error response line for requests that never reached the engine.
std::string FormatErrorLine(int64_t id, const std::string& error);

// Serializes a query request as one wire line, no trailing newline.
// Every parameter ParseRequestLine reads is emitted explicitly, so
// ParseRequestLine(FormatRequest(r)) reconstructs `r` field-for-field
// (doubles bit-for-bit via FormatDouble <-> ParseDouble).
std::string FormatRequest(const ServeRequest& request);

// A query request formatted once for a scatter: FormatRequest's line
// without the shard stamp ("shard", "shard_epoch"), and the offset the
// stamp goes at. The cluster router formats each query once and stamps
// a copy per shard, instead of copying and formatting the request (query
// vector included) once per shard.
struct UnstampedRequest {
  std::string text;
  size_t stamp_at = 0;
};
UnstampedRequest FormatUnstampedRequest(const ServeRequest& request);

// Appends FormatRequest(r) for `r` = the formatted request with
// shard_filter = `shard` and require_epoch = `epoch`, byte for byte:
// "shard" is written when shard >= 0, "shard_epoch" when epoch != 0.
void AppendStampedRequest(const UnstampedRequest& request, long shard,
                          uint64_t epoch, std::string* out);

// Parses a response line (the inverse of FormatResponse, minus the trace
// echo) into a typed ServeResponse. The cluster router uses this to
// gather worker sub-scan replies; distances survive bit-for-bit, so a
// re-serialized merge is byte-identical to the single-process answer.
bool ParseResponseLine(const std::string& line, ServeResponse* out,
                       std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_PROTOCOL_H_
