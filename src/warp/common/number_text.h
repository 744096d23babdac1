// Decimal text for doubles: the one codec behind every number the
// project writes into JSON or reads from JSON and UCR files.
//
// The text is pinned byte for byte: AppendDouble writes what the rule
// "first of %.15g / %.16g / %.17g that strtod reads back to the same
// bits" writes, and ParseDouble accepts, rejects and rounds exactly as
// strtod on the same characters. Goldens, cache keys and the cluster's
// byte-equality contract all rest on that text, so the codec may only be
// faster than snprintf/strtod, never different.

#ifndef WARP_COMMON_NUMBER_TEXT_H_
#define WARP_COMMON_NUMBER_TEXT_H_

#include <string>
#include <string_view>

namespace warp {

// Appends the shortest of %.15g, %.16g, %.17g (in that order) whose text
// parses back to `value`'s bits; "null" for NaN and +-Inf, since JSON has
// neither. Normal values take the shortest round-trip digits laid out by
// printf's %g rules; subnormals, zeros and exact powers of two, where
// those digits can differ from the %.Ng ones, run the rule itself.
void AppendDouble(double value, std::string* out);

// Parses all of `text` as strtod would: true when strtod consumes every
// character, with *value what strtod returns, so a leading '+' or
// whitespace, hex floats, "inf"/"nan", and out-of-range results (+-HUGE_VAL,
// 0 or a subnormal) all behave as strtod's. Empty text is rejected.
// std::from_chars does the common case; anything it declines goes to
// strtod. *value is unspecified on failure.
bool ParseDouble(std::string_view text, double* value);

}  // namespace warp

#endif  // WARP_COMMON_NUMBER_TEXT_H_
