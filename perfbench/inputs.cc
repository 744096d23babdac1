#include "inputs.h"

#include <cmath>
#include <filesystem>
#include <sstream>

#include "warp/common/random.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"
#include "warp/gen/warping.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/protocol.h"
#include "warp/serve/snapshot.h"
#include "warp/ts/io.h"

namespace perfbench {
namespace {

// One independent stream per (seed, purpose).
uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

// A planted window's edges are distinctive: the four steps around its
// first and last points each exceed this many window standard deviations.
constexpr double kPlantEdge = 0.3;

// The served traffic, the same for serve and cluster.
constexpr size_t kHotSeries = 150;
constexpr size_t kHotLength = 64;
constexpr size_t kBulkSeries = 20000;
constexpr size_t kBulkLength = 128;
constexpr size_t kPoolSize = 4096;
constexpr double kServedWindow = 0.1;
constexpr double kMix1nn = 0.3;
constexpr double kMixKnn = 0.15;
constexpr double kMixRange = 0.15;  // The rest (0.4) are dist lookups.
constexpr size_t kKnnK = 5;
constexpr double kRangeThreshold = 10.0;  // A median of 5 hits.
constexpr double kRepeatFraction = 0.1;
constexpr size_t kRepeatDistance = 64;

bool WriteSearch(const Options& options, std::string* error) {
  using namespace search;
  warp::Rng rng(StreamSeed(options.seed, 1));
  const std::vector<double> haystack = warp::gen::RandomWalk(kHaystack, rng);
  warp::Dataset haystack_file;
  haystack_file.Add(warp::TimeSeries(haystack, 0));

  // Even queries are planted: a warped, noisy copy of a window of their
  // section. Odd queries are fresh random walks.
  warp::Dataset query_file;
  std::ostringstream planted;
  for (size_t q = 0; q < kQueries; ++q) {
    if (q % 2 == 1) {
      query_file.Add(warp::TimeSeries(warp::gen::RandomWalk(kLength, rng), 0));
      continue;
    }
    // Plant only where the window's edges are distinctive (kPlantEdge), so
    // a window shifted by one costs more than the warp and the noise, and
    // the best match lands on the plant itself.
    size_t position = 0;
    double mean = 0.0, sq = 0.0;
    for (bool found = false; !found;) {
      position = SearchSection(q, kHaystack / kSection) * kSection + 1 +
                 rng.UniformInt(kSection - kLength - 1);
      mean = 0.0;
      sq = 0.0;
      for (size_t i = 0; i < kLength; ++i) mean += haystack[position + i];
      mean /= static_cast<double>(kLength);
      for (size_t i = 0; i < kLength; ++i) {
        sq += (haystack[position + i] - mean) * (haystack[position + i] - mean);
      }
      const double min_step =
          kPlantEdge * std::sqrt(sq / static_cast<double>(kLength));
      found = true;
      for (size_t at : {position, position + 1, position + kLength - 1,
                        position + kLength}) {
        found = found && std::abs(haystack[at] - haystack[at - 1]) > min_step;
      }
    }
    const std::span<const double> window(haystack.data() + position, kLength);
    std::vector<double> query = warp::gen::ApplyRandomWarp(window, kPlantWarp, rng);
    const double scale = kPlantNoise * std::sqrt(sq / static_cast<double>(kLength));
    for (double& v : query) v += rng.Gaussian(0.0, scale);
    query_file.Add(warp::TimeSeries(std::move(query), 1));
    planted << q << ' ' << position << '\n';
  }
  return warp::SaveUcrFile(options.dir + "/haystack.tsv", haystack_file, error) &&
         warp::SaveUcrFile(options.dir + "/queries.tsv", query_file, error) &&
         WriteText(options.dir + "/planted.txt", planted.str(), error);
}

bool WritePairwise(const Options& options, std::string* error) {
  using namespace pairwise;
  warp::gen::GestureOptions gesture;
  gesture.length = kLength;
  gesture.seed = StreamSeed(options.seed, 2);
  const size_t per_class = (kSeries + static_cast<size_t>(gesture.num_classes) - 1) /
                           static_cast<size_t>(gesture.num_classes);
  const warp::Dataset all = warp::gen::MakeGestureDataset(per_class, gesture);
  warp::Dataset written;
  for (size_t i = 0; i < kSeries; ++i) written.Add(all[i]);

  // Each block draws kBlockSize distinct series.
  warp::Rng rng(StreamSeed(options.seed, 3));
  std::ostringstream lines;
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<size_t> members;
    while (members.size() < kBlockSize) {
      const size_t pick = rng.UniformInt(kSeries);
      bool seen = false;
      for (size_t m : members) seen = seen || m == pick;
      if (!seen) members.push_back(pick);
    }
    for (size_t i = 0; i < members.size(); ++i) {
      lines << (i == 0 ? "" : " ") << members[i];
    }
    lines << '\n';
  }
  return warp::SaveUcrFile(options.dir + "/series.tsv", written, error) &&
         WriteText(options.dir + "/blocks.txt", lines.str(), error);
}

size_t BandFor(double fraction, size_t length) {
  return static_cast<size_t>(std::lround(fraction * static_cast<double>(length)));
}

bool WriteServed(const Options& options, std::string* error) {
  const std::string snapshots = options.dir + "/snapshots";
  std::error_code fs_error;
  std::filesystem::create_directories(snapshots, fs_error);
  if (fs_error) {
    *error = "cannot create " + snapshots;
    return false;
  }
  // The datasets are written as finished indexes; restoring them is the
  // servers' set-up.
  {
    warp::serve::DatasetStore store(1);
    store.Register("hot",
                   warp::gen::RandomWalkDataset(kHotSeries, kHotLength,
                                                StreamSeed(options.seed, 4)),
                   {BandFor(0.05, kHotLength), BandFor(kServedWindow, kHotLength)});
    store.Register("bulk",
                   warp::gen::RandomWalkDataset(kBulkSeries, kBulkLength,
                                                StreamSeed(options.seed, 5)),
                   {BandFor(kServedWindow, kBulkLength)});
    if (!warp::serve::SaveSnapshot(*store.Get("hot"), snapshots + "/hot.wsnap",
                                   error) ||
        !warp::serve::SaveSnapshot(*store.Get("bulk"),
                                   snapshots + "/bulk.wsnap", error)) {
      return false;
    }
  }

  // The pool: scans (1nn / knn / range) on `hot`, dist lookups on `bulk`.
  // A kRepeatFraction of the scans re-ask a scan at most kRepeatDistance
  // lines earlier, so the result cache answers them.
  warp::Rng rng(StreamSeed(options.seed, 6));
  std::vector<warp::serve::ServeRequest> requests;
  std::vector<size_t> scans;  // Pool lines holding scans.
  std::string text;
  for (size_t i = 0; i < kPoolSize; ++i) {
    warp::serve::ServeRequest request;
    const double pick = rng.NextDouble();
    if (pick >= kMix1nn + kMixKnn + kMixRange) {
      request.op = warp::serve::QueryOp::kDist;
      request.dataset = "bulk";
      request.index = rng.UniformInt(kBulkSeries);
      request.query = warp::gen::RandomWalk(kBulkLength, rng);
    } else if (!scans.empty() && i - scans.back() <= kRepeatDistance &&
               rng.Bernoulli(kRepeatFraction)) {
      size_t earlier = scans.size();
      while (earlier > 0 && i - scans[earlier - 1] <= kRepeatDistance) --earlier;
      request = requests[scans[earlier + rng.UniformInt(scans.size() - earlier)]];
    } else {
      request.dataset = "hot";
      request.query = warp::gen::RandomWalk(kHotLength, rng);
      if (pick < kMix1nn) {
        request.op = warp::serve::QueryOp::k1Nn;
      } else if (pick < kMix1nn + kMixKnn) {
        request.op = warp::serve::QueryOp::kKnn;
        request.k = kKnnK;
      } else {
        request.op = warp::serve::QueryOp::kRange;
        request.threshold = kRangeThreshold;
      }
    }
    request.id = static_cast<int64_t>(i);
    request.params.window_fraction = kServedWindow;
    if (request.op != warp::serve::QueryOp::kDist) scans.push_back(i);
    text += warp::serve::FormatRequest(request);
    text += '\n';
    requests.push_back(std::move(request));
  }
  return WriteText(options.dir + "/requests.jsonl", text, error);
}

}  // namespace

bool WriteInputs(const Options& options, std::string* error) {
  std::error_code fs_error;
  std::filesystem::create_directories(options.dir, fs_error);
  if (fs_error) {
    *error = "cannot create " + options.dir;
    return false;
  }
  if (options.workload == "search") return WriteSearch(options, error);
  if (options.workload == "pairwise") return WritePairwise(options, error);
  if (options.workload == "serve" || options.workload == "cluster") {
    return WriteServed(options, error);
  }
  *error = "unknown workload '" + options.workload + "'";
  return false;
}

bool ReadPlanted(const std::string& dir, size_t queries,
                 std::vector<long>* planted, std::string* error) {
  std::vector<std::string> lines;
  if (!ReadLines(dir + "/planted.txt", &lines, error)) return false;
  planted->assign(queries, -1);
  for (const std::string& line : lines) {
    std::istringstream in(line);
    size_t query = 0;
    long position = 0;
    if (!(in >> query >> position) || query >= queries) {
      *error = "bad planted.txt line: " + line;
      return false;
    }
    (*planted)[query] = position;
  }
  return true;
}

bool ReadBlocks(const std::string& dir, std::vector<std::vector<size_t>>* blocks,
                std::string* error) {
  std::vector<std::string> lines;
  if (!ReadLines(dir + "/blocks.txt", &lines, error)) return false;
  blocks->clear();
  for (const std::string& line : lines) {
    std::istringstream in(line);
    std::vector<size_t> members;
    size_t index = 0;
    while (in >> index) members.push_back(index);
    if (members.size() < 2) {
      *error = "bad blocks.txt line: " + line;
      return false;
    }
    blocks->push_back(std::move(members));
  }
  return true;
}

}  // namespace perfbench
