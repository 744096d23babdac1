#include "warp/serve/result_cache.h"

#include <cstring>
#include <utility>

#include "warp/common/metrics.h"
#include "warp/common/number_text.h"

namespace warp {
namespace serve {

namespace {

// FNV-1a over the raw bytes of the query values. The doubles are used
// bit-for-bit: two queries hash equal iff their values are bitwise equal,
// matching the engine's bitwise determinism contract.
uint64_t HashDoubles(const std::vector<double>& values) {
  uint64_t hash = 1469598103934665603ull;
  for (const double value : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xFFu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

void AppendKeyDouble(std::string* key, double value) {
  key->push_back('|');
  AppendDouble(value, key);
}

}  // namespace

std::string CacheKey(const ServeRequest& request, uint64_t epoch) {
  std::string key;
  key.reserve(160);
  key += QueryOpName(request.op);
  key.push_back('|');
  key += request.dataset;
  key.push_back('|');
  key += std::to_string(epoch);
  key.push_back('|');
  key += request.measure;
  const MeasureParams& p = request.params;
  AppendKeyDouble(&key, p.window_fraction);
  key.push_back('|');
  key += std::to_string(p.band_cells);
  AppendKeyDouble(&key, p.wdtw_g);
  key.push_back('|');
  key.push_back(p.wdtw_full_band ? '1' : '0');
  AppendKeyDouble(&key, p.adtw_omega);
  AppendKeyDouble(&key, p.adtw_ratio);
  AppendKeyDouble(&key, p.lcss_epsilon);
  AppendKeyDouble(&key, p.erp_gap);
  AppendKeyDouble(&key, p.msm_cost);
  key.push_back('|');
  key += std::to_string(p.fastdtw_radius);
  key.push_back('|');
  key += p.cost == CostKind::kSquared ? "sq" : "abs";
  key.push_back('|');
  key += std::to_string(request.k);
  AppendKeyDouble(&key, request.threshold);
  key.push_back('|');
  key += std::to_string(request.index);
  key.push_back('|');
  key.push_back(request.znormalize ? '1' : '0');
  key.push_back('|');
  key += std::to_string(request.query.size());
  key.push_back('|');
  key += std::to_string(HashDoubles(request.query));
  // Shard-filtered sub-scans (cluster workers) answer over one shard's
  // candidates only; they must never collide with full-dataset entries.
  key.push_back('|');
  key += std::to_string(request.shard_filter);
  return key;
}

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

bool ResultCache::Lookup(const std::string& key, ServeResponse* response) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    WARP_COUNT(obs::Counter::kServeCacheMisses);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  WARP_COUNT(obs::Counter::kServeCacheHits);
  *response = it->second->response;
  return true;
}

void ResultCache::Insert(const std::string& key,
                         const ServeResponse& response) {
  if (capacity_ == 0 || !response.ok || response.partial) return;
  // Stage timings are wall-clock properties of one execution, not of the
  // answer; store entries pristine so a hit never replays stale timings
  // (the engine stamps a fresh trace on every hit).
  ServeResponse stored = response;
  stored.trace = StageTrace{};
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->response = stored;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(stored)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    WARP_COUNT(obs::Counter::kServeCacheEvictions);
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace serve
}  // namespace warp
