// warp-metrics-v1: Prometheus-style text exposition of the counter,
// histogram, and gauge registries.
//
// The serving `metrics` control op returns this text (embedded as a JSON
// string in the usual one-line response envelope) so an external scraper
// gets every registry in one round trip without speaking any op-specific
// schema. The format is the conventional text exposition shape:
//
//   # warp-metrics-v1
//   # TYPE warp_serve_requests counter
//   warp_serve_requests_total 42
//   # TYPE warp_serve_queue_depth gauge
//   warp_serve_queue_depth 0
//   # TYPE warp_serve_latency_1nn_us histogram
//   warp_serve_latency_1nn_us_bucket{le="1"} 0
//   warp_serve_latency_1nn_us_bucket{le="3"} 2
//   warp_serve_latency_1nn_us_bucket{le="+Inf"} 5
//   warp_serve_latency_1nn_us_sum 1234
//   warp_serve_latency_1nn_us_count 5
//
// Contract (validated by scripts/serve_smoke.sh and the golden test):
//   * first line is exactly "# warp-metrics-v1";
//   * every metric name is prefixed "warp_" and counters end in "_total";
//   * histogram buckets are cumulative, le bounds are the inclusive
//     power-of-two bucket bounds in increasing order, emitted up to the
//     highest occupied bucket, and the "+Inf" bucket always equals
//     <name>_count;
//   * values are non-negative integers except gauges, which may be
//     negative.

#ifndef WARP_OBS_EXPOSITION_H_
#define WARP_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace obs {

// An extra single-valued metric owned by the caller rather than a
// registry (e.g. the result cache's size/hits, which live on the cache
// object — see the single-source-of-truth note in docs/SERVING.md).
// `name` is the full metric name without the "warp_" prefix or "_total"
// suffix; the renderer adds both as appropriate.
struct ExpositionExtra {
  std::string name;
  bool is_counter = false;  // counters get "_total", gauges do not
  int64_t value = 0;
};

// Renders the warp-metrics-v1 text document from the given snapshots.
// Counters and gauges are emitted exhaustively (zero values included —
// scrapers want stable series); histograms with no samples emit only
// their "+Inf" bucket, sum, and count.
std::string RenderMetricsText(const MetricsSnapshot& counters,
                              const HistogramSnapshot& histograms,
                              const GaugeSnapshot& gauges,
                              const std::vector<ExpositionExtra>& extras);

// The inverse of RenderMetricsText: fills the snapshots and `extras` (in
// document order) from a warp-metrics-v1 document. Strict — any sample
// the renderer would not have written, or a missing registry sample, is
// refused with false and *error — so Render(Parse(text)) == text.
bool ParseMetricsText(const std::string& text, MetricsSnapshot* counters,
                      HistogramSnapshot* histograms, GaugeSnapshot* gauges,
                      std::vector<ExpositionExtra>* extras,
                      std::string* error);

}  // namespace obs
}  // namespace warp

#endif  // WARP_OBS_EXPOSITION_H_
