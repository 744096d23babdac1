#include "warp/ts/io.h"

#include <cmath>
#include <fstream>
#include <string_view>

#include "warp/common/number_text.h"

namespace warp {

namespace {

bool IsSeparator(char c) {
  return c == '\t' || c == ',' || c == ' ' || c == '\r';
}

// Splits on any run of separators. The views point into `line`.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSeparator(line[i])) ++i;
    size_t start = i;
    while (i < line.size() && !IsSeparator(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// Accepts what strtod accepts (a leading '+', hex floats) as long as the
// value is finite, so "1e400" and "inf" are rejected.
bool ParseFiniteDouble(std::string_view token, double* value) {
  return ParseDouble(token, value) && std::isfinite(*value);
}

}  // namespace

bool ParseUcrLine(const std::string& line, TimeSeries* series,
                  std::string* error) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.size() < 2) {
    *error = "line must contain a label and at least one value";
    return false;
  }
  double label_value = 0.0;
  if (!ParseFiniteDouble(tokens[0], &label_value)) {
    *error = "unparseable class label: '" + std::string(tokens[0]) + "'";
    return false;
  }
  std::vector<double> values;
  values.reserve(tokens.size() - 1);
  for (size_t i = 1; i < tokens.size(); ++i) {
    double v = 0.0;
    if (!ParseFiniteDouble(tokens[i], &v)) {
      *error =
          "unparseable or non-finite value: '" + std::string(tokens[i]) + "'";
      return false;
    }
    values.push_back(v);
  }
  *series = TimeSeries(std::move(values), static_cast<int>(label_value));
  return true;
}

bool LoadUcrFile(const std::string& path, Dataset* dataset,
                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open file: " + path;
    return false;
  }
  Dataset result;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line == "\r") continue;
    TimeSeries series;
    std::string parse_error;
    if (!ParseUcrLine(line, &series, &parse_error)) {
      *error = path + ":" + std::to_string(line_number) + ": " + parse_error;
      return false;
    }
    result.Add(std::move(series));
  }
  if (result.empty()) {
    *error = "file contains no series: " + path;
    return false;
  }
  result.set_name(path);
  *dataset = std::move(result);
  return true;
}

bool SaveUcrFile(const std::string& path, const Dataset& dataset,
                 std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open file for writing: " + path;
    return false;
  }
  out.precision(17);
  for (const auto& series : dataset.series()) {
    out << series.label();
    for (double v : series.values()) out << '\t' << v;
    out << '\n';
  }
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool LoadSeriesFile(const std::string& path, TimeSeries* series,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open file: " + path;
    return false;
  }
  std::vector<double> values;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    for (const std::string_view token : Tokenize(line)) {
      double v = 0.0;
      if (!ParseFiniteDouble(token, &v)) {
        *error = path + ":" + std::to_string(line_number) +
                 ": unparseable or non-finite value: '" + std::string(token) +
                 "'";
        return false;
      }
      values.push_back(v);
    }
  }
  if (values.empty()) {
    *error = "file contains no values: " + path;
    return false;
  }
  *series = TimeSeries(std::move(values));
  return true;
}

bool SaveSeriesFile(const std::string& path, const TimeSeries& series,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open file for writing: " + path;
    return false;
  }
  out.precision(17);
  for (double v : series.values()) out << v << '\n';
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace warp
