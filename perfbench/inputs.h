// The seed's inputs for each workload: what `gen` writes and what the
// checker reads back besides the program's own input files.
//
//   search    haystack.tsv  one UCR row: a random walk of kHaystack points,
//                           searched in sections of kSection points
//             queries.tsv   kQueries UCR rows of kLength points; label 1
//                           marks a planted query, 0 a fresh random walk
//             planted.txt   "<query> <position>" per planted query (checker
//                           only; the program never reads it)
//   pairwise  series.tsv    kSeries gesture exemplars of kLength points
//             blocks.txt    kBlocks lines of kBlockSize series indices: the
//                           series of one pairwise matrix
//   serve,    snapshots/    hot.wsnap and bulk.wsnap (warp-snap-v1)
//   cluster   requests.jsonl  the request pool, one wire line each, with
//                           id = line number
//
// Every byte follows from (workload, seed, window): the same seed writes
// identical files. serve and cluster read the same files, so the gap
// between them is the router alone.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

namespace search {
constexpr size_t kHaystack = 160000;
constexpr size_t kSection = 10000;
constexpr size_t kQueries = 2048;
constexpr size_t kLength = 128;
// Planted queries are warped by at most 0.3 % of their length (a larger
// warp lets a window shifted by one beat the plant) and get Gaussian
// noise of 1 % of the window's standard deviation.
constexpr double kPlantWarp = 0.003;
constexpr double kPlantNoise = 0.01;
}  // namespace search

namespace pairwise {
constexpr size_t kSeries = 256;
constexpr size_t kLength = 945;
constexpr size_t kBlockSize = 10;
constexpr size_t kBlocks = 64;
}  // namespace pairwise

bool WriteInputs(const Options& options, std::string* error);

// The search section query q scans: queries 2k (planted) and 2k + 1
// (fresh) share section k mod `sections`. Sections are disjoint, so every
// run covers `sections` independent stretches of the walk however long
// each scan is.
inline size_t SearchSection(size_t query, size_t sections) {
  return (query / 2) % sections;
}

// planted.txt as a per-query vector: the planted position, or -1 for a
// fresh query.
bool ReadPlanted(const std::string& dir, size_t queries,
                 std::vector<long>* planted, std::string* error);

// blocks.txt: the series indices of each block.
bool ReadBlocks(const std::string& dir, std::vector<std::vector<size_t>>* blocks,
                std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
