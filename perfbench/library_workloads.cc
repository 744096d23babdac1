// search and pairwise: the program is the warp library, called in this
// process on inputs parsed from the seed's files.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "inputs.h"
#include "warp/common/metrics.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/measure.h"
#include "warp/mining/similarity_search.h"
#include "warp/ts/dataset.h"
#include "warp/ts/io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using warp::obs::Counter;

// Set-up (parsing the input files) is repeated this often; the run
// reports the median. A parse takes 0.05 to 0.13 s, and on the reference
// machine the speed of a vCPU swings by half from one second to the next:
// the median of 8 parses in a row spread by 0.29 of itself over ten
// seeds, that of 32 in a row by 0.26. The repeats after the first are
// spread evenly over the measured loop, so they sample the same stretch
// of host time as qps (pairwise: 0.03 to 0.07).
constexpr size_t kSetupRepeats = 32;
// Operations in each fixed pass of a traced run.
constexpr size_t kSearchTraceOps = 256;
constexpr size_t kPairwiseTraceOps = 64;
// Search queries also checked against FindBestMatchNaive.
constexpr size_t kNaiveSample = 4;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Delta(const warp::obs::MetricsSnapshot& after,
             const warp::obs::MetricsSnapshot& before, Counter counter) {
  return static_cast<double>(after.Get(counter) - before.Get(counter));
}

// Parses `files` from options.dir into *out; *seconds is how long it
// took.
bool Parse(const Options& options, const std::vector<std::string>& files,
           std::vector<warp::Dataset>* out, double* seconds, std::string* error) {
  const double start = NowSeconds();
  out->assign(files.size(), warp::Dataset());
  for (size_t f = 0; f < files.size(); ++f) {
    if (!warp::LoadUcrFile(options.dir + "/" + files[f], &(*out)[f], error)) {
      return false;
    }
  }
  *seconds = NowSeconds() - start;
  return true;
}

// Runs `op` in a closed loop for options.seconds, and longer until it has
// run `inputs` operations (so every input is used and checked at least
// once) and p99 has its 1000 samples. Rotates it over the CPUs `width` at
// a time. Between operations it repeats the set-up (a fresh parse of
// `files`, discarded) until it has kSetupRepeats set-up times with
// `first_setup_s`, spread evenly over options.seconds; the loop's figures
// leave that time out. Adds the end-to-end metrics.
template <typename Op>
bool ClosedLoop(const Options& options, size_t width, size_t inputs,
                const std::vector<std::string>& files, double first_setup_s,
                Op op, RunResult* result, std::string* error) {
  std::vector<Timing> ops, pauses;
  std::vector<double> setups = {first_setup_s};
  const auto reparse = [&] {
    std::vector<warp::Dataset> scratch;
    double seconds = 0.0;
    const double start = NowSeconds();
    if (!Parse(options, files, &scratch, &seconds, error)) return false;
    setups.push_back(seconds);
    pauses.push_back({start, NowSeconds()});
    return true;
  };
  CpuRotation rotation(width);
  StealMonitor steal;
  const double start = NowSeconds();
  const size_t min_ops = std::max<size_t>(inputs, 1000);
  for (size_t i = 0; NowSeconds() - start < options.seconds || i < min_ops; ++i) {
    rotation.Place(i);
    if (setups.size() < kSetupRepeats &&
        NowSeconds() - start >= options.seconds * static_cast<double>(setups.size()) /
                                    static_cast<double>(kSetupRepeats) &&
        !reparse()) {
      return false;
    }
    const double t = NowSeconds();
    op(i);
    ops.push_back({t, NowSeconds()});
  }
  const double end = NowSeconds();
  steal.Stop();
  while (setups.size() < kSetupRepeats) {
    if (!reparse()) return false;
  }
  LoopFigures figures;
  std::string note;
  if (!QuietFigures(ops, pauses, start, end, steal, options.workload, &figures,
                    &note, error)) {
    return false;
  }
  result->notes.push_back(note);
  result->Add("qps", figures.qps, "1/s");
  result->Add("p50_ms", figures.p50_ms, "ms");
  result->Add("p99_ms", figures.p99_ms, "ms");
  result->Add("setup_s", Median(setups), "s");
  result->Add("rss_mb", PeakRssMiB(0), "MiB");
  return true;
}

// Runs a fixed pass of `ops` operations untraced and traced, alternating,
// twice each. Returns the traced pass's extra time in percent and leaves
// the counters of both traced passes in *counted (for a seed they repeat
// exactly: the work is the same every time).
template <typename Op>
double AlternatePasses(size_t ops, size_t width, Op op, SpanLog* log,
                       warp::obs::MetricsSnapshot* counted) {
  SpanLog off(false);
  CpuRotation rotation(width);
  double untraced = 0.0, traced = 0.0;
  for (int round = 0; round < 2; ++round) {
    double start = NowSeconds();
    for (size_t i = 0; i < ops; ++i) {
      rotation.Place(i);
      op(i, &off);
    }
    untraced += NowSeconds() - start;

    const warp::obs::MetricsSnapshot before = warp::obs::SnapshotCounters();
    start = NowSeconds();
    for (size_t i = 0; i < ops; ++i) {
      rotation.Place(i);
      op(i, log);
    }
    traced += NowSeconds() - start;
    const warp::obs::MetricsSnapshot delta = warp::obs::CountersSince(before);
    for (size_t c = 0; c < warp::obs::kNumCounters; ++c) {
      counted->values[c] += delta.values[c];
    }
  }
  return (traced / untraced - 1.0) * 100.0;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

bool RunSearch(const Options& options, RunResult* result, std::string* error) {
  const std::vector<std::string> inputs = {"haystack.tsv", "queries.tsv"};
  std::vector<warp::Dataset> files;
  double setup_s = 0.0;
  if (!Parse(options, inputs, &files, &setup_s, error)) return false;
  const std::vector<double>& haystack = files[0][0].values();
  const warp::Dataset& queries = files[1];
  using search::kSection;
  // Query q scans its section; positions are reported in the whole walk.
  const auto section_of = [&](size_t q) {
    return std::span<const double>(
        haystack.data() + SearchSection(q, haystack.size() / kSection) * kSection,
        kSection);
  };
  const auto offset_of = [&](size_t q) {
    return static_cast<size_t>(section_of(q).data() - haystack.data());
  };
  const size_t band = static_cast<size_t>(std::lround(
      options.Param("window") * static_cast<double>(queries[0].size())));
  std::vector<long> planted;
  if (!ReadPlanted(options.dir, queries.size(), &planted, error)) return false;

  // Every answer is checked: a planted query must land on its plant, and
  // a query asked again must get the same bits as the first time.
  std::vector<std::optional<warp::SubsequenceMatch>> first(queries.size());
  const auto search = [&](size_t q) {
    warp::SubsequenceMatch match =
        warp::FindBestMatch(section_of(q), queries[q].values(), band);
    match.position += offset_of(q);
    ++result->attempted;
    if (planted[q] >= 0 && match.position != static_cast<size_t>(planted[q])) {
      result->Fail("search query " + std::to_string(q) + " matched at " +
                   std::to_string(match.position) + ", planted at " +
                   std::to_string(planted[q]));
    } else if (first[q] && (first[q]->position != match.position ||
                            !SameBits(first[q]->distance, match.distance))) {
      result->Fail("search query " + std::to_string(q) + " changed answer");
    } else if (!first[q]) {
      first[q] = match;
    }
  };

  if (!options.trace) {
    if (!ClosedLoop(
            options, 1, queries.size(), inputs, setup_s,
            [&](size_t i) { search(i % queries.size()); }, result, error)) {
      return false;
    }
  } else {
    // A fixed pass over the first kSearchTraceOps queries.
    const size_t ops = std::min(kSearchTraceOps, queries.size());
    SpanLog log(true);
    warp::obs::MetricsSnapshot counted;
    const double overhead = AlternatePasses(
        ops, 1,
        [&](size_t q, SpanLog* spans) {
          ScopedSpan span(spans, "mining.FindBestMatch", q);
          search(q);
        },
        &log, &counted);
    const auto d = [&](Counter c) {
      return static_cast<double>(counted.Get(c));
    };
    const double n = 2.0 * static_cast<double>(ops);
    const double candidates = d(Counter::kCascadeCandidates);
    result->Add("core.cells_per_op", d(Counter::kDtwCells) / n, "cells/op");
    result->Add("core.lb_kim_kill_rate",
                Ratio(d(Counter::kLbKimKills), candidates), "ratio");
    result->Add("core.lb_keogh_kill_rate",
                Ratio(d(Counter::kLbKeoghKills),
                      candidates - d(Counter::kLbKimKills)),
                "ratio");
    result->Add("core.early_abandon_rate",
                Ratio(d(Counter::kCascadeEarlyAbandons),
                      d(Counter::kCascadeEarlyAbandons) +
                          d(Counter::kCascadeFullDtw)),
                "ratio");
    result->Add("core.full_dtw_per_op", d(Counter::kCascadeFullDtw) / n,
                "count/op");
    result->Add("mining.find_best_match_ms",
                log.MeanMicros("mining.FindBestMatch") * 1e-3, "ms");
    result->Add("common.pool_chunks_per_op", d(Counter::kPoolChunks) / n,
                "count/op");
    result->Add("common.pool_tasks_per_op", d(Counter::kPoolTasks) / n,
                "count/op");
    result->Add("trace.overhead_pct", overhead, "%");
    result->notes.push_back(
        "search: counters cover two traced passes over the first " +
        std::to_string(ops) + " queries; the search runs on 1 thread, so the "
        "pool counters read 0");
    if (!options.trace_out.empty() && !WriteSpans({&log}, options.trace_out)) {
      *error = "cannot write " + options.trace_out;
      return false;
    }
  }

  // A fixed sample against the unpruned reference: same window, and the
  // same distance up to the rounding of just-in-time normalization.
  const size_t sample = std::min(kNaiveSample, queries.size());
  for (size_t q = 0; q < sample; ++q) {
    const warp::SubsequenceMatch fast =
        warp::FindBestMatch(section_of(q), queries[q].values(), band);
    const warp::SubsequenceMatch naive =
        warp::FindBestMatchNaive(section_of(q), queries[q].values(), band);
    ++result->attempted;
    if (fast.position != naive.position ||
        std::abs(fast.distance - naive.distance) >
            1e-9 * std::max(1.0, std::abs(naive.distance))) {
      result->Fail("search query " + std::to_string(q) +
                   " disagrees with FindBestMatchNaive");
    }
  }
  return true;
}

bool RunPairwise(const Options& options, RunResult* result,
                 std::string* error) {
  const std::vector<std::string> inputs = {"series.tsv"};
  std::vector<warp::Dataset> files;
  double setup_s = 0.0;
  if (!Parse(options, inputs, &files, &setup_s, error)) return false;
  std::vector<std::vector<size_t>> blocks;
  if (!ReadBlocks(options.dir, &blocks, error)) return false;
  std::vector<std::vector<std::vector<double>>> block_series;
  for (const std::vector<size_t>& members : blocks) {
    block_series.emplace_back();
    for (size_t index : members) {
      if (index >= files[0].size()) {
        *error = "blocks.txt names series " + std::to_string(index);
        return false;
      }
      block_series.back().push_back(files[0][index].values());
    }
  }
  warp::MeasureParams params;
  params.window_fraction = options.Param("window");
  const warp::SeriesMeasure measure = warp::MakeMeasure("cdtw", params);
  const size_t threads = options.Count("threads");

  // The reference: each block's matrix filled on one thread. Every
  // multi-threaded matrix must equal it bit for bit.
  std::vector<warp::DistanceMatrix> reference;
  double reference_s = NowSeconds();
  const warp::obs::MetricsSnapshot reference_before =
      warp::obs::SnapshotCounters();
  for (const auto& series : block_series) {
    reference.push_back(warp::ComputePairwiseMatrix(series, measure, 1));
  }
  reference_s = NowSeconds() - reference_s;
  const double reference_cells =
      Delta(warp::obs::SnapshotCounters(), reference_before, Counter::kDtwCells);

  const auto fill = [&](size_t b) {
    const warp::DistanceMatrix matrix =
        warp::ComputePairwiseMatrix(block_series[b], measure, threads);
    ++result->attempted;
    const warp::DistanceMatrix& want = reference[b];
    for (size_t i = 0; i < want.size(); ++i) {
      for (size_t j = i + 1; j < want.size(); ++j) {
        if (!SameBits(matrix.at(i, j), want.at(i, j))) {
          result->Fail("pairwise block " + std::to_string(b) + " differs from "
                       "the 1-thread fill at (" + std::to_string(i) + ", " +
                       std::to_string(j) + ")");
          return;
        }
      }
    }
  };

  if (!options.trace) {
    return ClosedLoop(
        options, threads, blocks.size(), inputs, setup_s,
        [&](size_t i) { fill(i % blocks.size()); }, result, error);
  }

  const size_t ops = kPairwiseTraceOps;
  SpanLog log(true);
  warp::obs::MetricsSnapshot counted;
  const double overhead = AlternatePasses(
      ops, threads,
      [&](size_t b, SpanLog* spans) {
        ScopedSpan span(spans, "core.ComputePairwiseMatrix", b);
        fill(b % blocks.size());
      },
      &log, &counted);
  const auto d = [&](Counter c) { return static_cast<double>(counted.Get(c)); };
  const double n = 2.0 * static_cast<double>(ops);
  result->Add("core.cells_per_op", d(Counter::kDtwCells) / n, "cells/op");
  result->Add("core.ns_per_cell", Ratio(reference_s * 1e9, reference_cells),
              "ns");
  result->Add("simd.block_share",
              Ratio(d(Counter::kSimdBlocks),
                    d(Counter::kSimdBlocks) + d(Counter::kSimdScalarTail)),
              "ratio");
  result->Add("common.pool_chunks_per_op", d(Counter::kPoolChunks) / n,
              "count/op");
  result->Add("common.pool_tasks_per_op", d(Counter::kPoolTasks) / n,
              "count/op");
  result->Add("common.pool_queue_wait_us_per_chunk",
              Ratio(d(Counter::kPoolQueueWaitNanos) * 1e-3,
                    d(Counter::kPoolChunks)),
              "us");
  result->Add("trace.overhead_pct", overhead, "%");
  result->notes.push_back(
      "pairwise: counters cover two traced passes of " + std::to_string(ops) +
      " matrices; core.ns_per_cell times the 1-thread reference fill of all " +
      std::to_string(blocks.size()) + " blocks (kernel without the pool); "
      "no cascade runs, so the kill rates are 0");
  if (!options.trace_out.empty() && !WriteSpans({&log}, options.trace_out)) {
    *error = "cannot write " + options.trace_out;
    return false;
  }
  return true;
}

}  // namespace perfbench
