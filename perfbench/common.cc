#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double Options::Param(const std::string& name) const {
  const auto it = params.find(name);
  if (it == params.end()) {
    std::fprintf(stderr, "perfbench: missing workload parameter --%s\n",
                 name.c_str());
    std::exit(2);
  }
  return it->second;
}

size_t Options::Count(const std::string& name) const {
  const double value = Param(name);
  if (!(value >= 0.0) || value != std::floor(value)) {
    std::fprintf(stderr, "perfbench: --%s must be a whole number\n",
                 name.c_str());
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  // Keep the first few reasons; a systematic defect repeats one.
  if (failed <= 5) notes.push_back("FAILED: " + why);
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.correct && result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << metric.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(k, 1)) - 1];
}

namespace {

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t value = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> value; ++i) steal = value;
  return steal;
}

constexpr size_t kMinLatencyOps = 1000;

}  // namespace

StealMonitor::StealMonitor() {
  samples_.push_back({NowSeconds(), StealTicks()});
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPeriod));
      samples_.push_back({NowSeconds(), StealTicks()});
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(kGuard));
}

void StealMonitor::Stop() {
  if (!thread_.joinable()) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(kGuard));
  stop_ = true;
  thread_.join();
}

uint64_t StealMonitor::Ticks(double start, double end) const {
  // From the last sample at or before start - kGuard to the first at or
  // after end + kGuard (clamped to the sampled span).
  const auto at_or_after = [&](double t) {
    return std::lower_bound(samples_.begin(), samples_.end(), t,
                            [](const Sample& s, double v) { return s.at < v; });
  };
  auto first = at_or_after(start - kGuard);
  if (first != samples_.begin() &&
      (first == samples_.end() || first->at > start - kGuard)) {
    --first;
  }
  auto last = at_or_after(end + kGuard);
  if (last == samples_.end()) --last;
  return last->ticks - first->ticks;
}

double StealMonitor::StolenSeconds() const {
  return static_cast<double>(samples_.back().ticks - samples_.front().ticks) / 100.0;
}

namespace {

// The fewest steal ticks that items with at most that many reach `need`
// in total weight, given (ticks, weight) pairs; 0 when quiet ones do.
uint64_t TickLimit(std::vector<std::pair<uint64_t, double>> items, double need) {
  std::sort(items.begin(), items.end());
  double total = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    total += items[i].second;
    if (total >= need && (i + 1 == items.size() || items[i + 1].first != items[i].first)) {
      return items[i].first;
    }
  }
  return items.empty() ? 0 : items.back().first;
}

}  // namespace

bool QuietFigures(const std::vector<Timing>& ops,
                  const std::vector<Timing>& pauses, double start, double end,
                  const StealMonitor& steal, const std::string& what,
                  LoopFigures* figures, std::string* note, std::string* error) {
  if (ops.size() < kMinLatencyOps) {
    *error = what + ": only " + std::to_string(ops.size()) +
             " operations; p99 needs 1000 (ten beyond it)";
    return false;
  }
  std::vector<std::pair<uint64_t, double>> op_ticks;
  for (const Timing& op : ops) op_ticks.emplace_back(steal.Ticks(op.start, op.end), 1.0);
  const uint64_t op_limit = TickLimit(op_ticks, kMinLatencyOps);
  std::vector<double> latencies;
  size_t quiet_ops = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    quiet_ops += op_ticks[i].first == 0;
    if (op_ticks[i].first <= op_limit) latencies.push_back(ops[i].end - ops[i].start);
  }
  figures->p50_ms = Percentile(latencies, 0.50) * 1e3;
  figures->p99_ms = Percentile(latencies, 0.99) * 1e3;

  // The same for time, in sampling periods of [start, end] that no pause
  // overlaps.
  std::vector<double> done;
  for (const Timing& op : ops) done.push_back(op.end);
  std::sort(done.begin(), done.end());
  std::vector<double> period_start;
  std::vector<std::pair<uint64_t, double>> periods;
  size_t pause = 0;
  for (double t = start; t < end; t += StealMonitor::kPeriod) {
    const double u = std::min(end, t + StealMonitor::kPeriod);
    while (pause < pauses.size() && pauses[pause].end <= t) ++pause;
    if (pause < pauses.size() && pauses[pause].start < u) continue;
    period_start.push_back(t);
    periods.emplace_back(steal.Ticks(t, u), u - t);
  }
  double total_s = 0.0;
  for (const auto& period : periods) total_s += period.second;
  const uint64_t time_limit = TickLimit(periods, 0.1 * total_s);
  double kept_s = 0.0, quiet_s = 0.0;
  size_t kept_done = 0;
  for (size_t k = 0; k < periods.size(); ++k) {
    if (periods[k].first == 0) quiet_s += periods[k].second;
    if (periods[k].first > time_limit) continue;
    const double t = period_start[k];
    kept_s += periods[k].second;
    kept_done += static_cast<size_t>(
        std::lower_bound(done.begin(), done.end(), t + periods[k].second) -
        std::lower_bound(done.begin(), done.end(), t));
  }
  figures->qps = static_cast<double>(kept_done) / kept_s;

  std::ostringstream text;
  text.precision(3);
  text << what << ": host steal " << steal.StolenSeconds() << " CPU-s; "
       << quiet_ops << " of " << ops.size() << " operations and " << quiet_s
       << " of " << total_s << " s untouched by it";
  if (op_limit > 0) {
    text << "; latency over the " << latencies.size()
         << " operations with at most " << op_limit << " steal ticks";
  }
  if (time_limit > 0) {
    text << "; qps over the " << kept_s << " s with at most " << time_limit
         << " steal ticks";
  }
  *note = text.str();
  return true;
}

double PeakRssMiB(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuRotation::CpuRotation(size_t width) : width_(width == 0 ? 1 : width) {
  CPU_ZERO(&original_);
  sched_getaffinity(0, sizeof(original_), &original_);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  width_ = std::min(width_, cpus_.size());
}

CpuRotation::~CpuRotation() { sched_setaffinity(0, sizeof(original_), &original_); }

void CpuRotation::Place(size_t i) {
  if (cpus_.size() <= width_) return;  // Nowhere else to go.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (size_t k = 0; k < width_; ++k) CPU_SET(cpus_[(i + k) % cpus_.size()], &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

double SpanLog::MeanMicros(const std::string& name) const {
  double total_ns = 0.0;
  size_t count = 0;
  for (const Span& span : spans_) {
    if (span.end_ns == 0 || name != span.name) continue;
    total_ns += static_cast<double>(span.end_ns - span.start_ns);
    ++count;
  }
  return count == 0 ? 0.0 : total_ns / static_cast<double>(count) * 1e-3;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& span : logs[t]->spans()) {
      out << "{\"thread\":" << t << ",\"op\":" << span.op << ",\"name\":\""
          << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

bool ReadLines(const std::string& path, std::vector<std::string>* lines,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  lines->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

bool WriteText(const std::string& path, const std::string& text,
               std::string* error) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
