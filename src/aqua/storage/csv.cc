#include "aqua/storage/csv.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>

#include "aqua/common/failpoint.h"
#include "aqua/common/string_util.h"

namespace aqua {
namespace {

// One field of a record. `text` points into the CSV text, or, for a quoted
// field that needed unescaping, into the record's scratch buffer.
struct FieldView {
  std::string_view text;
  bool quoted = false;
};

// Cuts the next physical line off the front of `*rest`, without its "\n"
// or "\r\n".
std::string_view NextLine(std::string_view* rest) {
  const size_t nl = rest->find('\n');
  std::string_view line = rest->substr(0, nl);
  rest->remove_prefix(nl == std::string_view::npos ? rest->size() : nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// Splits one record into field views, honouring double-quote quoting: a
// quote opens a quoted field only as the field's first byte, and bytes
// after its closing quote are kept literally. An unquoted field is a view
// into `record`; a quoted one is unescaped into `scratch`, which is
// reserved to the record's size first so that it never reallocates under
// a view already handed out. Returns false on an unterminated quoted
// field; multi-line quoted fields are not supported (records are cut at
// newlines first), so they surface as unterminated quotes too.
bool SplitRecord(std::string_view record, std::vector<FieldView>* fields,
                 std::string* scratch) {
  fields->clear();
  scratch->clear();
  const size_t n = record.size();
  size_t i = 0;
  while (true) {
    if (i < n && record[i] == '"') {
      if (scratch->capacity() < n) scratch->reserve(n);
      const size_t begin = scratch->size();
      bool in_quotes = true;
      for (++i; i < n && (in_quotes || record[i] != ','); ++i) {
        const char c = record[i];
        if (in_quotes && c == '"') {
          if (i + 1 < n && record[i + 1] == '"') {
            scratch->push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          scratch->push_back(c);
        }
      }
      if (in_quotes) return false;
      fields->push_back(
          {std::string_view(scratch->data() + begin, scratch->size() - begin),
           true});
    } else {
      const size_t end = std::min(record.find(',', i), n);
      fields->push_back({record.substr(i, end - i), false});
      i = end;
    }
    if (i == n) return true;
    ++i;  // the ',' between fields
  }
}

// Parses one cell straight into its typed column; the empty unquoted
// field is NULL.
Status AppendCell(const FieldView& f, Column* column) {
  if (!f.quoted && f.text.empty()) {
    column->AppendNull();
    return Status::OK();
  }
  switch (column->type()) {
    case ValueType::kInt64: {
      int64_t v = 0;
      const char* last = f.text.data() + f.text.size();
      const auto [ptr, ec] = std::from_chars(f.text.data(), last, v);
      if (ec != std::errc() || ptr != last) {
        return Status::InvalidArgument("bad int64 field '" +
                                       std::string(f.text) + "'");
      }
      column->AppendInt64(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      const std::optional<double> v = ParseDouble(f.text);
      if (!v) {
        return Status::InvalidArgument("bad double field '" +
                                       std::string(f.text) + "'");
      }
      column->AppendDouble(*v);
      return Status::OK();
    }
    case ValueType::kString:
      column->AppendString(std::string(f.text));
      return Status::OK();
    case ValueType::kDate: {
      AQUA_ASSIGN_OR_RETURN(Date d, Date::Parse(f.text));
      column->AppendDate(d);
      return Status::OK();
    }
    case ValueType::kNull:
      break;
  }
  return Status::Internal("null-typed attribute");
}

std::string EncodeField(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(v.int64());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
      return buf;
    }
    case ValueType::kDate:
      return v.date().ToString();
    case ValueType::kString: {
      const std::string& s = v.str();
      if (s.empty() || s.find_first_of(",\"\n\r") != std::string::npos) {
        std::string out = "\"";
        for (char c : s) {
          if (c == '"') out += '"';
          out += c;
        }
        out += '"';
        return out;
      }
      return s;
    }
  }
  return "";
}

}  // namespace

Result<Table> Csv::Parse(std::string_view text, const Schema& schema) {
  AQUA_FAILPOINT("storage/csv/parse");
  // Tolerate a UTF-8 byte-order mark: editors on some platforms prepend
  // one, and without this the first header column would be misnamed
  // "\xEF\xBB\xBFname" and fail schema lookup.
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  std::string_view rest = text;
  const std::string_view header = NextLine(&rest);
  if (header.empty()) {
    // Text of blank lines only has no header; a blank line before a
    // header is a header naming no attribute.
    std::string_view probe = rest;
    bool blank = true;
    while (blank && !probe.empty()) blank = NextLine(&probe).empty();
    if (blank) return Status::InvalidArgument("CSV has no header");
  }

  std::vector<FieldView> fields;
  std::string scratch;
  if (!SplitRecord(header, &fields, &scratch)) {
    return Status::InvalidArgument(
        "malformed CSV header: unterminated quoted field");
  }
  // Map header position -> schema column index.
  std::vector<size_t> target(fields.size());
  std::vector<bool> seen(schema.num_attributes(), false);
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string_view name = fields[i].text;
    AQUA_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(Trim(name)));
    if (seen[idx]) {
      return Status::InvalidArgument("duplicate CSV column '" +
                                     std::string(name) + "'");
    }
    seen[idx] = true;
    target[i] = idx;
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("CSV is missing attribute '" +
                                     schema.attribute(i).name + "'");
    }
  }

  // Every record is one line, so the line count bounds the row count:
  // size the columns once instead of growing them by doubling.
  const size_t max_rows =
      static_cast<size_t>(std::count(rest.begin(), rest.end(), '\n')) +
      (rest.empty() || rest.back() == '\n' ? 0 : 1);
  std::vector<Column> columns;
  for (const Attribute& attr : schema.attributes()) {
    columns.emplace_back(attr.type);
    columns.back().Reserve(max_rows);
  }
  for (size_t line_no = 2; !rest.empty(); ++line_no) {
    const std::string_view record = NextLine(&rest);
    if (record.empty()) continue;
    if (!SplitRecord(record, &fields, &scratch)) {
      return Status::InvalidArgument(
          "malformed CSV record on line " + std::to_string(line_no) +
          ": unterminated quoted field");
    }
    if (fields.size() != target.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(target.size()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      const size_t col = target[i];
      const Status cell = AppendCell(fields[i], &columns[col]);
      if (!cell.ok()) {
        // Every cell error names its row and column; "bad double field"
        // alone is useless against a million-line file.
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ", column '" +
            schema.attribute(col).name + "': " + cell.message());
      }
    }
  }
  return Table::Make(schema, std::move(columns));
}

Result<Table> Csv::ReadFile(const std::string& path, const Schema& schema,
                            const fault::RetryPolicy& retry) {
  Result<std::string> text = fault::WithRetry(
      retry, "csv-read", [&]() -> Result<std::string> {
        // Partial poll first: Evaluate() behind AQUA_FAILPOINT consumes
        // the spec's trigger, so a `once*partial` polled after it would
        // never fire. InjectPartial checks the action kind before
        // consuming, leaving error/delay specs untouched.
        const bool torn = fault::InjectPartial("storage/csv/read-file");
        AQUA_FAILPOINT("storage/csv/read-file");
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in) return Status::NotFound("cannot open '" + path + "'");
        // Read straight into one buffer of the file's size, so the text
        // is held once while it is parsed.
        const std::streamoff size = in.tellg();
        if (size < 0) {
          return Status::InvalidArgument("cannot size '" + path +
                                         "' (not a regular file?)");
        }
        std::string contents(static_cast<size_t>(size), '\0');
        in.seekg(0);
        if (!in.read(contents.data(), size)) {
          return Status::Unavailable("short read of '" + path + "'");
        }
        if (torn) {
          // A partial-result fault models a torn read. The byte count
          // mismatch is *detected*, classified transient, and retried —
          // truncated data must never reach the parser as if complete.
          return Status::Unavailable("short read of '" + path +
                                     "' (injected partial result)");
        }
        return contents;
      });
  AQUA_RETURN_NOT_OK(text.status());
  return Parse(*text, schema);
}

std::string Csv::Format(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    out += schema.attribute(i).name;
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      out += EncodeField(table.GetValue(r, c));
    }
    out += '\n';
  }
  return out;
}

Status Csv::WriteFile(const Table& table, const std::string& path,
                      const fault::RetryPolicy& retry) {
  const std::string text = Format(table);
  return fault::WithRetry(retry, "csv-write", [&]() -> Status {
    AQUA_FAILPOINT("storage/csv/write-file");
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::InvalidArgument("cannot open '" + path +
                                             "' for writing");
    out << text;
    if (!out) return Status::Internal("write to '" + path + "' failed");
    return Status::OK();
  });
}

}  // namespace aqua
