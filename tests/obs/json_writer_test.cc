// Unit tests for the bench-report JSON emitter.

#include "warp/obs/json_writer.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace warp {
namespace obs {
namespace {

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter writer;
  writer.BeginObject().EndObject();
  EXPECT_EQ(writer.TakeOutput(), "{}");
}

TEST(JsonWriterTest, EmptyArray) {
  JsonWriter writer;
  writer.BeginArray().EndArray();
  EXPECT_EQ(writer.TakeOutput(), "[]");
}

TEST(JsonWriterTest, ScalarDocument) {
  JsonWriter writer;
  writer.Int(-42);
  EXPECT_EQ(writer.TakeOutput(), "-42");
}

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("a")
      .Int(1)
      .Key("b")
      .String("two")
      .Key("c")
      .Bool(true)
      .Key("d")
      .Null()
      .Key("e")
      .Uint(18446744073709551615ull)
      .EndObject();
  EXPECT_EQ(writer.TakeOutput(),
            "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":null,"
            "\"e\":18446744073709551615}");
}

TEST(JsonWriterTest, NestedContainersGetCommasRight) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("rows")
      .BeginArray()
      .BeginObject()
      .Key("x")
      .Int(1)
      .EndObject()
      .BeginObject()
      .Key("x")
      .Int(2)
      .EndObject()
      .EndArray()
      .Key("tail")
      .BeginArray()
      .Int(1)
      .Int(2)
      .Int(3)
      .EndArray()
      .EndObject();
  EXPECT_EQ(writer.TakeOutput(),
            "{\"rows\":[{\"x\":1},{\"x\":2}],\"tail\":[1,2,3]}");
}

TEST(JsonWriterTest, RawValueSplicesVerbatim) {
  JsonWriter writer;
  writer.BeginObject().Key("cfg").RawValue("3.25").EndObject();
  EXPECT_EQ(writer.TakeOutput(), "{\"cfg\":3.25}");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonWriter::Escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("tab\tnewline\n"), "tab\\tnewline\\n");
  EXPECT_EQ(JsonWriter::Escape(std::string("nul\0byte", 8)),
            "nul\\u0000byte");
  EXPECT_EQ(JsonWriter::Escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonWriterTest, Utf8PassesThroughUnchanged) {
  const std::string utf8 = "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac";
  EXPECT_EQ(JsonWriter::Escape(utf8), utf8);
}

TEST(JsonWriterTest, StringValueIsQuotedAndEscaped) {
  JsonWriter writer;
  writer.String("line1\nline2");
  EXPECT_EQ(writer.TakeOutput(), "\"line1\\nline2\"");
}

TEST(JsonWriterTest, DoubleRoundTripsExactly) {
  const double cases[] = {0.0,   1.0,     -1.5,        0.1,
                          1e-30, 1e30,    3.141592653589793,
                          1.0 / 3.0,      5e-324,
                          std::numeric_limits<double>::max()};
  for (const double value : cases) {
    const std::string text = JsonWriter::FormatDouble(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(parsed, value) << text;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonWriter::FormatDouble(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::FormatDouble(
                std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::FormatDouble(
                -std::numeric_limits<double>::infinity()),
            "null");
  JsonWriter writer;
  writer.BeginArray().Double(std::nan("")).Double(2.5).EndArray();
  EXPECT_EQ(writer.TakeOutput(), "[null,2.5]");
}

TEST(JsonWriterTest, NegativeZeroSurvives) {
  const std::string text = JsonWriter::FormatDouble(-0.0);
  const double parsed = std::strtod(text.c_str(), nullptr);
  EXPECT_TRUE(std::signbit(parsed));
}

// The number text the wire and every golden were made with, kept here
// as the oracle FormatDouble must match byte for byte.
std::string SnprintfRule(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

// Counts values whose FormatDouble text differs from the oracle's, and
// names the first few.
class OracleCheck {
 public:
  void Check(double value) {
    ++checked_;
    const std::string got = JsonWriter::FormatDouble(value);
    const std::string want = SnprintfRule(value);
    if (got == want) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << std::hexfloat << value << ": FormatDouble wrote "
                    << got << ", the rule writes " << want;
    }
  }
  // `value` and both of its neighbours.
  void CheckWithNeighbours(double value) {
    Check(value);
    Check(std::nextafter(value, -std::numeric_limits<double>::infinity()));
    Check(std::nextafter(value, std::numeric_limits<double>::infinity()));
  }
  size_t checked() const { return checked_; }
  size_t mismatches() const { return mismatches_; }

 private:
  size_t checked_ = 0;
  size_t mismatches_ = 0;
};

TEST(JsonWriterTest, FormatDoubleMatchesTheSnprintfRuleOnRandomBits) {
  OracleCheck oracle;
  std::mt19937_64 rng(20211);
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    oracle.Check(value);
  }
  EXPECT_EQ(oracle.mismatches(), 0u) << "of " << oracle.checked();
}

TEST(JsonWriterTest, FormatDoubleMatchesTheSnprintfRuleAcrossMagnitudes) {
  // Normal draws scaled across 10^-30 .. 10^30: the values a distance,
  // a z-normalized query point or a timing takes.
  OracleCheck oracle;
  std::mt19937_64 rng(7);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_real_distribution<double> decade(-30.0, 30.0);
  for (int i = 0; i < 1000000; ++i) {
    oracle.Check(normal(rng) * std::pow(10.0, decade(rng)));
  }
  EXPECT_EQ(oracle.mismatches(), 0u) << "of " << oracle.checked();
}

TEST(JsonWriterTest, FormatDoubleMatchesTheSnprintfRuleAtPowers) {
  OracleCheck oracle;
  for (int k = -1074; k <= 1023; ++k) {
    oracle.CheckWithNeighbours(std::ldexp(1.0, k));
    oracle.CheckWithNeighbours(-std::ldexp(1.0, k));
  }
  for (int k = -323; k <= 308; ++k) {
    const std::string text = "1e" + std::to_string(k);
    oracle.CheckWithNeighbours(std::strtod(text.c_str(), nullptr));
  }
  for (const double value :
       {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN, 1e-5, 1e-4,
        1e5, 1e15, 1e16, 1e17, 1e21, 0.1, 1.0 / 3.0}) {
    oracle.CheckWithNeighbours(value);
  }
  EXPECT_EQ(oracle.mismatches(), 0u) << "of " << oracle.checked();
}

// The two places where the shortest round-trip digits are not the
// rule's: both must take the rule's text.
TEST(JsonWriterTest, FormatDoubleKeepsTheRuleWhereShortestDigitsDiffer) {
  // An exact power of two (2^-1017): the shortest digits are 16 long,
  // but %.16g does not round-trip there, so the rule writes 17.
  const double power = std::ldexp(1.0, -1017);
  EXPECT_EQ(JsonWriter::FormatDouble(power), "7.1202363472230444e-307");
  EXPECT_EQ(SnprintfRule(power), "7.1202363472230444e-307");
  // A subnormal: %.15g already round-trips, with more digits than the
  // shortest ("5e-324").
  EXPECT_EQ(JsonWriter::FormatDouble(DBL_TRUE_MIN), "4.94065645841247e-324");
  EXPECT_EQ(SnprintfRule(DBL_TRUE_MIN), "4.94065645841247e-324");
}

TEST(JsonWriterTest, FormatDoubleLaysOutLikePercentG) {
  EXPECT_EQ(JsonWriter::FormatDouble(0.0), "0");
  EXPECT_EQ(JsonWriter::FormatDouble(-0.0), "-0");
  EXPECT_EQ(JsonWriter::FormatDouble(100.0), "100");
  EXPECT_EQ(JsonWriter::FormatDouble(-2.5), "-2.5");
  EXPECT_EQ(JsonWriter::FormatDouble(1e-4), "0.0001");
  EXPECT_EQ(JsonWriter::FormatDouble(1e-5), "1e-05");
  EXPECT_EQ(JsonWriter::FormatDouble(1.5e-5), "1.5e-05");
  EXPECT_EQ(JsonWriter::FormatDouble(1e15), "1e+15");
  EXPECT_EQ(JsonWriter::FormatDouble(123456789012345.0), "123456789012345");
  EXPECT_EQ(JsonWriter::FormatDouble(1e21), "1e+21");
  EXPECT_EQ(JsonWriter::FormatDouble(0.1), "0.1");
  EXPECT_EQ(JsonWriter::FormatDouble(1.0 / 3.0), "0.3333333333333333");
}

TEST(JsonWriterDeathTest, ValueWithoutKeyInObjectAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginObject().Int(1);
      },
      "");
}

TEST(JsonWriterDeathTest, KeyInsideArrayAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginArray().Key("k");
      },
      "");
}

TEST(JsonWriterDeathTest, SecondTopLevelValueAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.Int(1);
        writer.Int(2);
      },
      "");
}

TEST(JsonWriterDeathTest, UnclosedContainerAbortsOnTakeOutput) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginObject();
        writer.TakeOutput();
      },
      "");
}

}  // namespace
}  // namespace obs
}  // namespace warp
