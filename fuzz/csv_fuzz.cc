// libFuzzer harness for the CSV reader: any byte sequence parsed against a
// fixed four-type schema must yield a Status (a table or an error), never a
// crash or an out-of-bounds read. Csv::Parse splits fields as views into
// the input, so this is where a pointer-walking bug would show. A table
// that parses must also survive Format -> Parse unchanged: every CSV text
// aqua writes, it must read back.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "aqua/storage/csv.h"

namespace {

bool SameCell(const aqua::Column& a, const aqua::Column& b, size_t row) {
  if (a.IsNull(row) || b.IsNull(row)) return a.IsNull(row) == b.IsNull(row);
  switch (a.type()) {
    case aqua::ValueType::kInt64:
      return a.Int64At(row) == b.Int64At(row);
    case aqua::ValueType::kDouble:
      // NaN payloads are not written, so any NaN matches any NaN.
      if (std::isnan(a.DoubleAt(row))) return std::isnan(b.DoubleAt(row));
      return std::bit_cast<uint64_t>(a.DoubleAt(row)) ==
             std::bit_cast<uint64_t>(b.DoubleAt(row));
    case aqua::ValueType::kString:
      return a.StringAt(row) == b.StringAt(row);
    case aqua::ValueType::kDate:
      return a.DateAt(row) == b.DateAt(row);
    case aqua::ValueType::kNull:
      break;
  }
  return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const aqua::Schema schema =
      *aqua::Schema::Make({{"id", aqua::ValueType::kInt64},
                           {"x", aqua::ValueType::kDouble},
                           {"s", aqua::ValueType::kString},
                           {"d", aqua::ValueType::kDate}});
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const aqua::Result<aqua::Table> parsed = aqua::Csv::Parse(text, schema);
  if (!parsed.ok()) return 0;
  const aqua::Result<aqua::Table> again =
      aqua::Csv::Parse(aqua::Csv::Format(*parsed), schema);
  if (!again.ok() || again->num_rows() != parsed->num_rows()) std::abort();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    for (size_t r = 0; r < parsed->num_rows(); ++r) {
      if (!SameCell(parsed->column(c), again->column(c), r)) std::abort();
    }
  }
  return 0;
}
