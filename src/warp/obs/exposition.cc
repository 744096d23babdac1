#include "warp/obs/exposition.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <utility>

namespace warp {
namespace obs {

namespace {

void AppendLine(std::string* out, const std::string& name,
                unsigned long long value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %llu\n", value);
  out->append(name);
  out->append(buffer);
}

void AppendTypeHeader(std::string* out, const std::string& name,
                      const char* type) {
  out->append("# TYPE ");
  out->append(name);
  out->append(" ");
  out->append(type);
  out->append("\n");
}

void AppendHistogram(std::string* out, const std::string& name,
                     const HistogramData& data) {
  AppendTypeHeader(out, name, "histogram");
  // Cumulative buckets up to the highest occupied one; "+Inf" always
  // present and always equal to the total count.
  size_t highest = 0;
  bool any = false;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (data.buckets[i] != 0) {
      highest = i;
      any = true;
    }
  }
  uint64_t cumulative = 0;
  if (any) {
    for (size_t i = 0; i <= highest; ++i) {
      cumulative += data.buckets[i];
      char label[64];
      std::snprintf(label, sizeof(label), "_bucket{le=\"%llu\"}",
                    static_cast<unsigned long long>(HistogramBucketBound(i)));
      AppendLine(out, name + label, cumulative);
    }
  }
  AppendLine(out, name + "_bucket{le=\"+Inf\"}", data.count);
  AppendLine(out, name + "_sum", data.sum);
  AppendLine(out, name + "_count", data.count);
}

// Removes sample `name` from `samples` and parses its integer value.
template <typename Int>
bool TakeSample(std::map<std::string, std::string>* samples,
                const std::string& name, Int* value) {
  const auto it = samples->find(name);
  if (it == samples->end()) return false;
  const std::string& text = it->second;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  const bool ok = ec == std::errc() && end == text.data() + text.size();
  samples->erase(it);
  return ok;
}

}  // namespace

std::string RenderMetricsText(const MetricsSnapshot& counters,
                              const HistogramSnapshot& histograms,
                              const GaugeSnapshot& gauges,
                              const std::vector<ExpositionExtra>& extras) {
  std::string out = "# warp-metrics-v1\n";

  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter counter = static_cast<Counter>(i);
    const std::string name = std::string("warp_") + CounterName(counter);
    AppendTypeHeader(&out, name, "counter");
    AppendLine(&out, name + "_total", counters.Get(counter));
  }

  for (size_t i = 0; i < kNumGauges; ++i) {
    const Gauge gauge = static_cast<Gauge>(i);
    const std::string name = std::string("warp_") + GaugeName(gauge);
    AppendTypeHeader(&out, name, "gauge");
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), " %lld\n",
                  static_cast<long long>(gauges.Get(gauge)));
    out.append(name);
    out.append(buffer);
  }

  for (const ExpositionExtra& extra : extras) {
    const std::string name = "warp_" + extra.name;
    AppendTypeHeader(&out, name, extra.is_counter ? "counter" : "gauge");
    if (extra.is_counter) {
      const uint64_t value =
          extra.value > 0 ? static_cast<uint64_t>(extra.value) : uint64_t{0};
      AppendLine(&out, name + "_total", value);
    } else {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), " %lld\n",
                    static_cast<long long>(extra.value));
      out.append(name);
      out.append(buffer);
    }
  }

  for (size_t i = 0; i < kNumHistograms; ++i) {
    const Histogram histogram = static_cast<Histogram>(i);
    AppendHistogram(&out, std::string("warp_") + HistogramName(histogram),
                    histograms.Get(histogram));
  }

  return out;
}

bool ParseMetricsText(const std::string& text, MetricsSnapshot* counters,
                      HistogramSnapshot* histograms, GaugeSnapshot* gauges,
                      std::vector<ExpositionExtra>* extras,
                      std::string* error) {
  const std::string header = "# warp-metrics-v1\n";
  if (text.compare(0, header.size(), header) != 0) {
    *error = "not a warp-metrics-v1 document";
    return false;
  }
  std::map<std::string, std::string> samples;  // Sample name -> value.
  std::vector<std::pair<std::string, std::string>> families;  // Name, type.
  for (size_t pos = header.size(); pos < text.size();) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      *error = "malformed line: '" + line + "'";
      return false;
    }
    if (line.compare(0, 7, "# TYPE ") == 0) {
      families.emplace_back(line.substr(7, space - 7), line.substr(space + 1));
    } else {
      samples[line.substr(0, space)] = line.substr(space + 1);
    }
  }

  // The registries first, in the order the renderer writes them; each
  // consumed sample leaves the map, so the TYPE lines whose samples are
  // still there afterwards are exactly the extras.
  const auto missing = [&](const std::string& name) {
    *error = "missing or malformed samples of '" + name + "'";
    return false;
  };
  *counters = MetricsSnapshot{};
  for (size_t i = 0; i < kNumCounters; ++i) {
    const std::string name = std::string("warp_") +
                             CounterName(static_cast<Counter>(i)) + "_total";
    if (!TakeSample(&samples, name, &counters->values[i])) {
      return missing(name);
    }
  }
  *gauges = GaugeSnapshot{};
  for (size_t i = 0; i < kNumGauges; ++i) {
    const std::string name =
        std::string("warp_") + GaugeName(static_cast<Gauge>(i));
    if (!TakeSample(&samples, name, &gauges->values[i])) return missing(name);
  }
  *histograms = HistogramSnapshot{};
  for (size_t h = 0; h < kNumHistograms; ++h) {
    const std::string name =
        std::string("warp_") + HistogramName(static_cast<Histogram>(h));
    HistogramData& data = histograms->series[h];
    uint64_t below = 0;  // Cumulative count of the buckets already read.
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      uint64_t cumulative = 0;
      if (!TakeSample(&samples,
                      name + "_bucket{le=\"" +
                          std::to_string(HistogramBucketBound(i)) + "\"}",
                      &cumulative)) {
        break;
      }
      data.buckets[i] = cumulative - below;
      below = cumulative;
    }
    uint64_t infinite = 0;
    if (!TakeSample(&samples, name + "_bucket{le=\"+Inf\"}", &infinite) ||
        !TakeSample(&samples, name + "_sum", &data.sum) ||
        !TakeSample(&samples, name + "_count", &data.count) ||
        infinite != data.count) {
      return missing(name);
    }
  }

  extras->clear();
  for (const auto& [family, type] : families) {
    const bool is_counter = type == "counter";
    int64_t value = 0;
    if (family.compare(0, 5, "warp_") == 0 && type != "histogram" &&
        TakeSample(&samples, is_counter ? family + "_total" : family,
                   &value)) {
      extras->push_back({family.substr(5), is_counter, value});
    }
  }
  if (!samples.empty()) {
    *error = "unexpected sample '" + samples.begin()->first + "'";
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace warp
