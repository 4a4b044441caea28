// Property tests for Csv::Parse: random tables over all four column types,
// with NULLs, survive Format -> Parse bit for bit, also with CRLF line
// endings, a byte-order mark and interior blank lines; malformed records
// are reported with their exact message and physical line number.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "aqua/common/random.h"
#include "aqua/storage/csv.h"

namespace aqua {
namespace {

Schema FourTypeSchema() {
  return *Schema::Make({{"id", ValueType::kInt64},
                        {"x", ValueType::kDouble},
                        {"s", ValueType::kString},
                        {"d", ValueType::kDate}});
}

int64_t RandomInt64(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::max();
    case 2:
      return rng.UniformInt(-1000, 1000);
    default:
      return std::bit_cast<int64_t>(rng.Next());
  }
}

double RandomDouble(Rng& rng) {
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  static constexpr double kSpecial[] = {0.0,     -0.0,    HUGE_VAL,
                                        -HUGE_VAL, kNaN,  DBL_MAX,
                                        DBL_MIN, 0x1p-1074, -0x1p-1074};
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return kSpecial[rng.UniformInt(0, std::size(kSpecial) - 1)];
    case 1: {  // subnormal, either sign
      constexpr uint64_t kSignAndMantissa =
          (uint64_t{1} << 63) | ((uint64_t{1} << 52) - 1);
      return std::bit_cast<double>(rng.Next() & kSignAndMantissa);
    }
    case 2:
      return rng.Uniform(-1e6, 1e6);
    default:  // any bit pattern: normals, infinities and NaNs
      return std::bit_cast<double>(rng.Next());
  }
}

// Strings over an alphabet that exercises quoting: the separator, the
// quote, a bare carriage return and byte 0x01, plus the empty string.
std::string RandomString(Rng& rng) {
  static constexpr char kAlphabet[] = {'a', 'Z', '0', ' ', ',', '"', '\r',
                                       '\x01', ';'};
  std::string s(static_cast<size_t>(rng.UniformInt(0, 8)), ' ');
  for (char& c : s) c = kAlphabet[rng.UniformInt(0, std::size(kAlphabet) - 1)];
  return s;
}

Table RandomTable(Rng& rng, size_t rows) {
  std::vector<Column> columns = {
      Column(ValueType::kInt64), Column(ValueType::kDouble),
      Column(ValueType::kString), Column(ValueType::kDate)};
  for (size_t r = 0; r < rows; ++r) {
    for (Column& c : columns) {
      if (rng.UniformInt(0, 7) == 0) {
        c.AppendNull();
        continue;
      }
      switch (c.type()) {
        case ValueType::kInt64:
          c.AppendInt64(RandomInt64(rng));
          break;
        case ValueType::kDouble:
          c.AppendDouble(RandomDouble(rng));
          break;
        case ValueType::kString:
          c.AppendString(RandomString(rng));
          break;
        case ValueType::kDate:  // 1000-01-01 .. 9999-12-31
          c.AppendDate(Date(static_cast<int32_t>(
              rng.UniformInt(-354285, 2932896))));
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  return *Table::Make(FourTypeSchema(), std::move(columns));
}

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "cell (" << r << ", " << c << ")";
      if (w.IsNull(r)) continue;
      switch (w.type()) {
        case ValueType::kInt64:
          ASSERT_EQ(g.Int64At(r), w.Int64At(r)) << "row " << r;
          break;
        case ValueType::kDouble:
          if (std::isnan(w.DoubleAt(r))) {
            ASSERT_TRUE(std::isnan(g.DoubleAt(r))) << "row " << r;
          } else {
            ASSERT_EQ(std::bit_cast<uint64_t>(g.DoubleAt(r)),
                      std::bit_cast<uint64_t>(w.DoubleAt(r)))
                << "row " << r << ": " << w.DoubleAt(r);
          }
          break;
        case ValueType::kString:
          ASSERT_EQ(g.StringAt(r), w.StringAt(r)) << "row " << r;
          break;
        case ValueType::kDate:
          ASSERT_EQ(g.DateAt(r), w.DateAt(r)) << "row " << r;
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
}

// Rewrites Format's output as a Windows export would: a byte-order mark,
// CRLF endings and, after random records, blank lines (LF or CRLF).
std::string Windowsify(const std::string& text, Rng& rng) {
  std::string out = "\xEF\xBB\xBF";
  for (const char c : text) {
    if (c != '\n') {
      out += c;
      continue;
    }
    out += "\r\n";
    while (rng.UniformInt(0, 3) == 0) {
      out += rng.UniformInt(0, 1) ? "\r\n" : "\n";
    }
  }
  return out;
}

TEST(CsvPropertyTest, FormatThenParseIsIdentity) {
  Rng rng(20090401);
  for (int round = 0; round < 50; ++round) {
    const Table original =
        RandomTable(rng, static_cast<size_t>(rng.UniformInt(0, 60)));
    const auto parsed = Csv::Parse(Csv::Format(original), FourTypeSchema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectSameTable(*parsed, original);
  }
}

TEST(CsvPropertyTest, CrlfBomAndBlankLinesAreTransparent) {
  Rng rng(314159);
  for (int round = 0; round < 50; ++round) {
    const Table original =
        RandomTable(rng, static_cast<size_t>(rng.UniformInt(0, 60)));
    const std::string text = Windowsify(Csv::Format(original), rng);
    const auto parsed = Csv::Parse(text, FourTypeSchema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectSameTable(*parsed, original);
  }
}

// Errors count physical lines: the header is line 1, and blank and CRLF
// lines count like any other.
TEST(CsvPropertyTest, ErrorsNameThePhysicalLine) {
  struct Bad {
    const char* record;
    const char* message;  // after the line number is substituted
  };
  const Bad kinds[] = {
      {"1,2.5,abc", "line # has 3 fields, expected 4"},
      {"1,2.5,\"abc,2020-01-01",
       "malformed CSV record on line #: unterminated quoted field"},
      {"1,1.2.3,abc,2020-01-01",
       "line #, column 'x': bad double field '1.2.3'"},
  };
  Rng rng(27);
  for (int round = 0; round < 10; ++round) {
    const Table table =
        RandomTable(rng, static_cast<size_t>(rng.UniformInt(0, 20)));
    const std::string good = Windowsify(Csv::Format(table), rng);
    size_t line = 1;
    for (const char c : good) line += c == '\n' ? 1 : 0;
    for (const Bad& bad : kinds) {
      const auto parsed = Csv::Parse(
          good + bad.record + "\r\n1,2,3,2020-01-01\n", FourTypeSchema());
      ASSERT_FALSE(parsed.ok()) << bad.record;
      std::string want = bad.message;
      want.replace(want.find('#'), 1, std::to_string(line));
      EXPECT_EQ(parsed.status(), Status::InvalidArgument(want));
    }
  }
}

}  // namespace
}  // namespace aqua
