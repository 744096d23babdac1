#include "warp/common/number_text.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace warp {

namespace {

// The rule itself: %.15g, %.16g, %.17g in turn until the text reads back
// to `value` (to_chars with a precision is printf's %.Ng, byte for byte).
void AppendByRule(double value, std::string* out) {
  char buffer[40];
  for (int precision = 15;; ++precision) {
    const char* end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, precision)
                          .ptr;
    const std::string_view text(buffer, static_cast<size_t>(end - buffer));
    double parsed = 0.0;
    if (precision == 17 || (ParseDouble(text, &parsed) && parsed == value)) {
      out->append(text);
      return;
    }
  }
}

}  // namespace

void AppendDouble(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint64_t exponent_field = (bits >> 52) & 0x7FF;
  const uint64_t fraction_field = bits & ((uint64_t{1} << 52) - 1);
  if (exponent_field == 0 || fraction_field == 0) {
    // Zeros and subnormals: a subnormal's shortest digits can be fewer
    // than the %.15g ones that already round-trip (5e-324 against
    // 4.94065645841247e-324). Powers of two: the round-trip interval is
    // lopsided, so the shortest 16 digits can round-trip where %.16g's
    // do not and the rule goes on to %.17g.
    AppendByRule(value, out);
    return;
  }

  // Elsewhere the shortest round-trip digits D are exactly the digits of
  // the first %.Pg that round-trips, with P = max(15, |D|): no shorter
  // precision can round-trip, and the correctly rounded P digits lie
  // closer to `value` than D does, inside the same symmetric interval.
  // Only the layout is left to do. to_chars writes d[.ddd]e+XX.
  char text[32];
  const char* const end = std::to_chars(text, text + sizeof(text), value,
                                        std::chars_format::scientific)
                              .ptr;
  const char* p = text;
  if (*p == '-') ++p;
  const char* const mantissa = p;
  char digits[20];
  size_t count = 0;
  digits[count++] = *p++;
  if (*p == '.') {
    for (++p; *p != 'e'; ++p) digits[count++] = *p;
  }
  int exponent = 0;
  std::from_chars(p + 2, end, exponent);
  if (p[1] == '-') exponent = -exponent;

  const int precision = count > 15 ? static_cast<int>(count) : 15;
  if (exponent < -4 || exponent >= precision) {
    // %g's exponential form is %e's with trailing zeros dropped, which
    // the shortest digits never have.
    out->append(text, static_cast<size_t>(end - text));
    return;
  }
  if (mantissa != text) out->push_back('-');
  if (exponent < 0) {
    out->append("0.");
    out->append(static_cast<size_t>(-exponent - 1), '0');
    out->append(digits, count);
    return;
  }
  const size_t integer_digits = static_cast<size_t>(exponent) + 1;
  if (count <= integer_digits) {
    out->append(digits, count);
    out->append(integer_digits - count, '0');
    return;
  }
  out->append(digits, integer_digits);
  out->push_back('.');
  out->append(digits + integer_digits, count - integer_digits);
}

bool ParseDouble(std::string_view text, double* value) {
  if (text.empty()) return false;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *value);
  if (error == std::errc() && stop == end && !std::isnan(*value)) {
    return true;
  }
  // What from_chars declines, strtod decides: a leading '+' or
  // whitespace, hex floats, the out-of-range results from_chars leaves
  // unwritten (strtod returns +-HUGE_VAL, 0 or a subnormal), and NaN
  // payloads ("nan(123)"), which from_chars drops.
  char small[64];
  std::string large;
  const char* terminated = small;
  if (text.size() < sizeof(small)) {
    std::memcpy(small, text.data(), text.size());
    small[text.size()] = '\0';
  } else {
    large.assign(text);
    terminated = large.c_str();
  }
  char* parse_end = nullptr;
  *value = std::strtod(terminated, &parse_end);
  return parse_end == terminated + text.size();
}

}  // namespace warp
