#include "warp/serve/request.h"

#include <algorithm>
#include <utility>

namespace warp {
namespace serve {

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::k1Nn: return "1nn";
    case QueryOp::kKnn: return "knn";
    case QueryOp::kRange: return "range";
    case QueryOp::kDist: return "dist";
    case QueryOp::kSubsequence: return "subsequence";
  }
  return "unknown";
}

obs::Histogram LatencyHistogramForOp(QueryOp op) {
  switch (op) {
    case QueryOp::k1Nn: return obs::Histogram::kServeLatency1nn;
    case QueryOp::kKnn: return obs::Histogram::kServeLatencyKnn;
    case QueryOp::kRange: return obs::Histogram::kServeLatencyRange;
    case QueryOp::kDist: return obs::Histogram::kServeLatencyDist;
    case QueryOp::kSubsequence:
      return obs::Histogram::kServeLatencySubsequence;
  }
  return obs::Histogram::kServeLatency1nn;
}

bool IsScanOp(QueryOp op) {
  return op == QueryOp::k1Nn || op == QueryOp::kKnn || op == QueryOp::kRange;
}

ServeResponse ErrorResponse(const ServeRequest& request, std::string message) {
  ServeResponse response;
  response.id = request.id;
  response.op = request.op;
  response.error = std::move(message);
  return response;
}

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

void AddTopK(std::vector<Neighbor>* hits, const Neighbor& n, size_t k) {
  const auto pos = std::lower_bound(hits->begin(), hits->end(), n, NeighborLess);
  if (hits->size() == k && pos == hits->end()) return;
  hits->insert(pos, n);
  if (hits->size() > k) hits->pop_back();
}

std::vector<Neighbor> GatherNeighbors(
    const ServeRequest& request,
    const std::vector<const std::vector<Neighbor>*>& parts) {
  std::vector<Neighbor> hits;
  if (request.op == QueryOp::kRange) {
    for (const std::vector<Neighbor>* part : parts) {
      hits.insert(hits.end(), part->begin(), part->end());
    }
    std::sort(hits.begin(), hits.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.index < b.index;
              });
    return hits;
  }
  const size_t k = request.op == QueryOp::kKnn ? request.k : 1;
  for (const std::vector<Neighbor>* part : parts) {
    for (const Neighbor& n : *part) AddTopK(&hits, n, k);
  }
  return hits;
}

bool ParseQueryOp(const std::string& name, QueryOp* op) {
  if (name == "1nn") *op = QueryOp::k1Nn;
  else if (name == "knn") *op = QueryOp::kKnn;
  else if (name == "range") *op = QueryOp::kRange;
  else if (name == "dist") *op = QueryOp::kDist;
  else if (name == "subsequence") *op = QueryOp::kSubsequence;
  else return false;
  return true;
}

}  // namespace serve
}  // namespace warp
