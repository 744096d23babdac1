// Shared pieces of the perfbench load generator: options, the result
// line, latency percentiles, process memory, and client-side spans.
//
// The load generator is one process. `gen` writes a seed's inputs into a
// directory; `run` reads only those files, drives the program (library
// calls in process, or spawned servers over loopback TCP), checks every
// answer, and prints one JSON result line last (see perfbench/README.md).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string mode;      // gen | run
  std::string workload;  // search | pairwise | serve | cluster
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        // The seed's input files.
  std::string trace_out;  // Span log written by a traced run ("" = none).
  // Workload parameters from perfbench/workloads.json, passed as
  // --name=value flags by run.py.
  std::map<std::string, double> params;

  // The parameter's value; exits with a message when it is missing, so a
  // typo in workloads.json cannot silently fall back to a default.
  double Param(const std::string& name) const;
  size_t Count(const std::string& name) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;  // Sample checks beyond the per-operation ones.
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON line: what a metric
  // means on this workload, or why it is unavailable.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why);  // Counts a failed operation.
};

// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
std::string ResultJson(const RunResult& result);

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

double Median(std::vector<double> values);

// Nearest-rank percentile (p in (0, 1]); 0 for no values.
double Percentile(std::vector<double> values, double p);

// Steal time: CPU time the hypervisor gave to other guests while this
// machine's vCPUs wanted to run (the 8th value of the "cpu" line of
// /proc/stat, counted in 10 ms ticks). On a shared host it comes in
// bursts, and an operation near one is slowed by the host, not by the
// program: a burst lifts served latency several-fold for seconds. The
// monitor samples the counter from a background thread while a
// measured loop runs, so qps, p50 and p99 can leave out what a burst
// touched.
class StealMonitor {
 public:
  // Starts sampling, and returns kGuard later.
  StealMonitor();
  ~StealMonitor() { Stop(); }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Samples for kGuard more, then stops; the queries below need it
  // stopped.
  void Stop();
  // Steal ticks from kGuard before `start` to kGuard after `end`
  // (NowSeconds). The guard covers the lag with which the guest accounts
  // steal (at a later tick, and only in whole 10 ms units) and the
  // operations queued behind a burst that has just ended: over six seeds
  // on the reference machine, widening it from 50 ms to 300 ms cut the
  // interquartile spread of the served p99 from 0.29 to 0.08 of its
  // median (cluster: 0.39 to 0.20), with 45-75 % of operations kept.
  uint64_t Ticks(double start, double end) const;
  // Steal over the whole sampling, in seconds of one CPU.
  double StolenSeconds() const;

  static constexpr double kPeriod = 0.02;
  static constexpr double kGuard = 0.3;

 private:
  struct Sample {
    double at;
    uint64_t ticks;
  };
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One timed operation, in NowSeconds: from when it started (open loop:
// when it was due) to when it completed.
struct Timing {
  double start;
  double end;
};

// The end-to-end figures of one measured loop over [start, end], taken
// from the operations and the time that no steal touched. qps is quiet
// completions per quiet second. p50 and p99 (ms) are nearest-rank over
// every quiet operation; p99 needs 1000 of them (ten beyond it). Where
// the host stole so often that fewer than 1000 operations (or a tenth of
// the time) stayed quiet, the figures use the least stolen-from instead:
// every operation (20 ms period) with at most the fewest steal ticks that
// still gives 1000 operations (a tenth of the time). `pauses` (sorted)
// are stretches of the loop spent on other work, left out of qps. `what`
// names the loop in *note, which says how much was left out.
struct LoopFigures {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
bool QuietFigures(const std::vector<Timing>& ops,
                  const std::vector<Timing>& pauses, double start, double end,
                  const StealMonitor& steal, const std::string& what,
                  LoopFigures* figures, std::string* note, std::string* error);

// Peak resident set (VmHWM) of `pid` in MiB; pid 0 = this process.
// Returns 0 when /proc has no such process.
double PeakRssMiB(long pid);

// Spreads the calling thread's operations over every CPU it may use:
// Place(i) moves it to `width` consecutive CPUs starting at the i-th
// (wrapping). On a virtual machine the CPUs differ in speed from moment
// to moment; a measurement left wherever the scheduler first put it
// varies with that choice from run to run, while a rotated one sees every
// CPU equally. Threads the library starts inherit the mask, so a 2-thread
// pool runs on the 2 CPUs of the current placement. The destructor
// restores the original mask.
class CpuRotation {
 public:
  explicit CpuRotation(size_t width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Place(size_t i);

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t width_;
};

// Client-side spans around the calls the load generator makes into the
// program's modules. One log per thread (no locking); spans of one
// operation share `op`, and `parent` indexes the enclosing span in the
// same log (-1 for a root). Disabled logs record nothing.
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int32_t Begin(const char* name, uint64_t op, int32_t parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, op, NowNanos(), 0, parent});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  }

  // Mean duration of the spans called `name`, in microseconds (0 when
  // there are none).
  double MeanMicros(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op, int32_t parent = -1)
      : log_(log), index_(log->Begin(name, op, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// Merges per-thread logs (thread t's spans get "thread":t) and writes
// them as JSON lines to `path`. Returns false on I/O failure.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

// Whole-file helpers for the input directory.
bool ReadLines(const std::string& path, std::vector<std::string>* lines,
               std::string* error);
bool WriteText(const std::string& path, const std::string& text,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
