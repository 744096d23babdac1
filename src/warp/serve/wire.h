// Wire-format JSON parsing for the serving protocol.
//
// The serving layer speaks line-delimited JSON (docs/SERVING.md). The
// library already owns a strict JSON *emitter* (warp/obs/json_writer.h);
// this is its read-side counterpart: a small recursive-descent parser for
// one complete JSON value, dependency-free, with depth and size limits so
// a hostile client cannot blow the stack or the heap. Numbers parse with
// warp::ParseDouble (warp/common/number_text.h: from_chars, with strtod's
// exact results where from_chars declines), so any double emitted by
// JsonWriter::FormatDouble round-trips to the identical bits — the
// property the result-cache and golden serving tests rely on.

#ifndef WARP_SERVE_WIRE_H_
#define WARP_SERVE_WIRE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace warp {
namespace serve {

// A parsed JSON value. Objects keep their members in a sorted map (the
// protocol never depends on member order); numbers are always doubles,
// matching the emitter.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults, for flat request objects.
  double NumberOr(const std::string& key, double fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses exactly one JSON value spanning all of `text` (surrounding
// whitespace allowed). On failure returns false and fills *error with a
// position-annotated message; *value is unspecified.
bool ParseJson(std::string_view text, JsonValue* value, std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_WIRE_H_
