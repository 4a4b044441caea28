// Answer checks against the reference file, and the reader of aquad's
// JSON responses.
//
// Tolerances (also listed in the README):
//   values (bounds, expectations, distribution outcomes): relative 1e-9,
//     i.e. |got - want| <= 1e-9 * max(1, |want|);
//   probabilities, total mass and CDF values: absolute 1e-9 (so an atom
//     of 1 + 2e-16 is a probability in [0, 1]);
//   COUNT distribution moments: mean relative 1e-8, variance relative 1e-6.
// No check compares support sizes or a copy of the program's output, so a
// change that correctly trims negligible mass still passes.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "bench.h"

namespace aquabench {
namespace {

using aqua::AggregateSemantics;

constexpr double kValueTol = 1e-9;
constexpr double kProbTol = 1e-9;
constexpr double kMeanTol = 1e-8;
constexpr double kVarTol = 1e-6;

bool Near(double got, double want, double rel = kValueTol) {
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

std::string Fmt(const char* what, double got, double want) {
  return std::string(what) + ": got " + Num(got) + ", want " + Num(want);
}

std::string WantSemantics(const AnswerView& a, AggregateSemantics s) {
  if (a.approximate) return "answer is flagged approximate";
  if (a.semantics != s) {
    return "answer semantics " +
           std::string(aqua::AggregateSemanticsToString(a.semantics)) +
           ", want " + std::string(aqua::AggregateSemanticsToString(s));
  }
  return "";
}

/// Sorts and merges entries whose outcomes agree within the value
/// tolerance, so that both sides group near-equal outcomes alike.
std::vector<std::pair<double, double>> Merged(
    std::vector<std::pair<double, double>> entries) {
  std::sort(entries.begin(), entries.end());
  std::vector<std::pair<double, double>> out;
  for (const auto& e : entries) {
    if (!out.empty() && Near(e.first, out.back().first)) {
      out.back().second += e.second;
    } else {
      out.push_back(e);
    }
  }
  return out;
}

/// Total mass 1, every probability in [0, 1] (both within kProbTol).
std::string CheckMass(const AnswerView& a) {
  double total = 0;
  for (const auto& [outcome, p] : a.dist) {
    if (!(p >= -kProbTol && p <= 1.0 + kProbTol)) {
      return Fmt("probability outside [0,1]", p, 0);
    }
    total += p;
  }
  if (std::fabs(total - 1.0) > kProbTol) return Fmt("total mass", total, 1);
  return "";
}

std::string CheckSupport(const AnswerView& a, double low, double high) {
  for (const auto& [outcome, p] : a.dist) {
    if (p <= 0) continue;
    if (outcome < low - kValueTol * std::max(1.0, std::fabs(low)) ||
        outcome > high + kValueTol * std::max(1.0, std::fabs(high))) {
      return "support point " + Num(outcome) + " outside [" + Num(low) +
             ", " + Num(high) + "]";
    }
  }
  return "";
}

}  // namespace

AnswerView ViewOf(const aqua::AggregateAnswer& answer) {
  AnswerView v;
  v.semantics = answer.semantics;
  v.low = answer.range.low;
  v.high = answer.range.high;
  v.expected = answer.expected_value;
  v.dist.reserve(answer.distribution.size());
  for (const auto& e : answer.distribution.entries()) {
    v.dist.emplace_back(e.outcome, e.prob);
  }
  v.approximate = answer.approximate;
  v.steps = answer.stats.steps;
  v.wall_time_us = answer.stats.wall_time_us;
  return v;
}

std::string CheckAnswer(const Op& op, const AnswerView& a,
                        const std::vector<double>& ref) {
  auto need = [&](size_t n) { return ref.size() >= n; };
  switch (op.check) {
    case Check::kRange: {
      if (auto e = WantSemantics(a, AggregateSemantics::kRange); !e.empty())
        return e;
      if (!need(2)) return "malformed reference";
      if (!Near(a.low, ref[0])) return Fmt("range low", a.low, ref[0]);
      if (!Near(a.high, ref[1])) return Fmt("range high", a.high, ref[1]);
      return "";
    }
    case Check::kExpected: {
      if (auto e = WantSemantics(a, AggregateSemantics::kExpectedValue);
          !e.empty())
        return e;
      if (!need(1)) return "malformed reference";
      if (!Near(a.expected, ref[0])) return Fmt("expected", a.expected, ref[0]);
      return "";
    }
    case Check::kTableDist: {
      if (auto e = WantSemantics(a, AggregateSemantics::kDistribution);
          !e.empty())
        return e;
      if (auto e = CheckMass(a); !e.empty()) return e;
      std::vector<std::pair<double, double>> want;
      for (size_t i = 0; i + 1 < ref.size(); i += 2) {
        want.emplace_back(ref[i], ref[i + 1]);
      }
      const auto got = Merged(a.dist);
      want = Merged(std::move(want));
      if (got.size() != want.size()) {
        return Fmt("distinct by-table outcomes", static_cast<double>(got.size()),
                   static_cast<double>(want.size()));
      }
      for (size_t i = 0; i < got.size(); ++i) {
        if (!Near(got[i].first, want[i].first)) {
          return Fmt("by-table outcome", got[i].first, want[i].first);
        }
        if (std::fabs(got[i].second - want[i].second) > kProbTol) {
          return Fmt("by-table probability", got[i].second, want[i].second);
        }
      }
      return "";
    }
    case Check::kCountDist: {
      if (auto e = WantSemantics(a, AggregateSemantics::kDistribution);
          !e.empty())
        return e;
      if (!need(4)) return "malformed reference";
      if (auto e = CheckMass(a); !e.empty()) return e;
      if (auto e = CheckSupport(a, ref[2], ref[3]); !e.empty()) return e;
      long double mean = 0, second = 0;
      for (const auto& [outcome, p] : a.dist) {
        mean += static_cast<long double>(outcome) * p;
        second += static_cast<long double>(outcome) * outcome * p;
      }
      const double var = static_cast<double>(second - mean * mean);
      if (!Near(static_cast<double>(mean), ref[0], kMeanTol)) {
        return Fmt("COUNT mean", static_cast<double>(mean), ref[0]);
      }
      if (!Near(var, ref[1], kVarTol)) return Fmt("COUNT variance", var, ref[1]);
      return "";
    }
    case Check::kPointMass: {
      if (auto e = WantSemantics(a, AggregateSemantics::kDistribution);
          !e.empty())
        return e;
      if (!need(1)) return "malformed reference";
      if (auto e = CheckMass(a); !e.empty()) return e;
      double at = 0;
      for (const auto& [outcome, p] : a.dist) {
        if (outcome == ref[0]) at += p;
      }
      if (at < 1.0 - kProbTol) return Fmt("mass at the bid count", at, 1);
      return "";
    }
    case Check::kCdf: {
      if (auto e = WantSemantics(a, AggregateSemantics::kDistribution);
          !e.empty())
        return e;
      if (!need(2)) return "malformed reference";
      if (auto e = CheckMass(a); !e.empty()) return e;
      if (auto e = CheckSupport(a, ref[0], ref[1]); !e.empty()) return e;
      // a.dist is sorted by outcome; walk it once per sampled point.
      for (size_t i = 2; i + 1 < ref.size(); i += 2) {
        const double x = ref[i];
        double cdf = 0;
        for (const auto& [outcome, p] : a.dist) {
          if (outcome > x) break;
          cdf += p;
        }
        if (std::fabs(cdf - ref[i + 1]) > kProbTol) {
          return Fmt(("CDF at " + Num(x)).c_str(), cdf, ref[i + 1]);
        }
      }
      return "";
    }
    case Check::kGroupedRange:
      return "grouped reference used for an ungrouped answer";
  }
  return "unknown check";
}

std::string CheckGroups(const Op& op, const std::vector<GroupView>& groups,
                        const std::vector<double>& ref) {
  if (op.check != Check::kGroupedRange) return "ungrouped check on groups";
  std::map<double, std::pair<double, double>> want;
  for (size_t i = 0; i + 2 < ref.size(); i += 3) {
    want[ref[i]] = {ref[i + 1], ref[i + 2]};
  }
  if (groups.size() != want.size()) {
    return Fmt("group count", static_cast<double>(groups.size()),
               static_cast<double>(want.size()));
  }
  for (const GroupView& g : groups) {
    const auto it = want.find(std::strtod(g.group.c_str(), nullptr));
    if (it == want.end()) return "unexpected group " + g.group;
    if (auto e = WantSemantics(g.answer, AggregateSemantics::kRange);
        !e.empty())
      return "group " + g.group + ": " + e;
    if (!Near(g.answer.low, it->second.first)) {
      return "group " + g.group + ": " +
             Fmt("range low", g.answer.low, it->second.first);
    }
    if (!Near(g.answer.high, it->second.second)) {
      return "group " + g.group + ": " +
             Fmt("range high", g.answer.high, it->second.second);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// A small JSON reader: enough for aquad's response bodies.

namespace {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  bool boolean = false;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        const char c = s_[pos_ + 1];
        if (c == 'u') {
          out->push_back('?');  // escapes do not occur in checked fields
          pos_ += 6;
          continue;
        }
        out->push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
        pos_ += 2;
        continue;
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        Json v;
        if (!Value(&v)) return false;
        out->fields.emplace_back(std::move(key), std::move(v));
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json v;
        if (!Value(&v)) return false;
        out->items.push_back(std::move(v));
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) {
      out->type = Json::Type::kNumber;  // non-finite numbers render as null
      out->number = std::nan("");
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    out->type = Json::Type::kNumber;
    pos_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

double NumberOr(const Json* j, double fallback) {
  return j != nullptr && j->type == Json::Type::kNumber ? j->number : fallback;
}

std::string ReadAnswer(const Json& answer, const Json* stats, AnswerView* v) {
  const Json* sem = answer.Get("semantics");
  if (sem == nullptr) return "answer without semantics";
  if (sem->text == "range") {
    v->semantics = AggregateSemantics::kRange;
    const Json* r = answer.Get("range");
    if (r == nullptr) return "range answer without range";
    v->low = NumberOr(r->Get("low"), std::nan(""));
    v->high = NumberOr(r->Get("high"), std::nan(""));
  } else if (sem->text == "distribution") {
    v->semantics = AggregateSemantics::kDistribution;
    const Json* d = answer.Get("distribution");
    if (d == nullptr) return "distribution answer without entries";
    v->dist.reserve(d->items.size());
    for (const Json& e : d->items) {
      if (e.items.size() != 2) return "malformed distribution entry";
      v->dist.emplace_back(e.items[0].number, e.items[1].number);
    }
  } else {
    v->semantics = AggregateSemantics::kExpectedValue;
    v->expected = NumberOr(answer.Get("expected"), std::nan(""));
  }
  const Json* approx = answer.Get("approximate");
  v->approximate = approx != nullptr && approx->boolean;
  if (stats != nullptr) {
    v->steps = static_cast<uint64_t>(NumberOr(stats->Get("steps"), 0));
    v->wall_time_us =
        static_cast<int64_t>(NumberOr(stats->Get("wall_time_us"), 0));
  }
  return "";
}

}  // namespace

namespace {

/// Reads the number after `"key":` at or after `*pos`, within `limit`.
bool NumberAfter(const std::string& body, const char* key, size_t limit,
                 size_t* pos, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = body.find(needle, *pos);
  if (at == std::string::npos || at >= limit) return false;
  *pos = at + needle.size();
  if (body.compare(*pos, 4, "null") == 0) {
    *out = std::nan("");
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(body.c_str() + *pos, &end);
  return end != body.c_str() + *pos;
}

/// The grouped body (`{"ok":true,...,"groups":[{"group":"g","answer":{...},
/// "stats":{...}},...]}`) is large — one element per group — so it is read
/// with a scan over aquad's fixed rendering instead of a tree.
std::string ParseGroups(const std::string& body, size_t from,
                        std::vector<GroupView>* groups) {
  const std::string open = "{\"group\":\"";
  size_t pos = from;
  for (size_t at = body.find(open, pos); at != std::string::npos;
       at = body.find(open, pos)) {
    const size_t key_end = body.find('"', at + open.size());
    const size_t next = body.find(open, at + open.size());
    const size_t limit = next == std::string::npos ? body.size() : next;
    if (key_end == std::string::npos || key_end >= limit) {
      return "malformed group";
    }
    GroupView view;
    view.group = body.substr(at + open.size(), key_end - at - open.size());
    pos = key_end;
    const size_t sem = body.find("\"semantics\":\"range\"", pos);
    if (sem == std::string::npos || sem >= limit) {
      return "group " + view.group + ": not a range answer";
    }
    double low = 0, high = 0, steps = 0, wall = 0;
    if (!NumberAfter(body, "low", limit, &pos, &low) ||
        !NumberAfter(body, "high", limit, &pos, &high)) {
      return "group " + view.group + ": malformed range";
    }
    const size_t approx = body.find("\"approximate\":", pos);
    if (approx == std::string::npos || approx >= limit) {
      return "group " + view.group + ": no approximate flag";
    }
    view.answer.approximate = body.compare(approx + 14, 4, "true") == 0;
    pos = approx;
    if (!NumberAfter(body, "wall_time_us", limit, &pos, &wall) ||
        !NumberAfter(body, "steps", limit, &pos, &steps)) {
      return "group " + view.group + ": malformed stats";
    }
    view.answer.semantics = AggregateSemantics::kRange;
    view.answer.low = low;
    view.answer.high = high;
    view.answer.steps = static_cast<uint64_t>(steps);
    view.answer.wall_time_us = static_cast<int64_t>(wall);
    groups->push_back(std::move(view));
    pos = limit;
  }
  return "";
}

}  // namespace

std::string ParseServiceBody(const std::string& body, AnswerView* answer,
                             std::vector<GroupView>* groups, bool* grouped) {
  if (body.rfind("{\"ok\":true,", 0) != 0) return "error response: " + body;
  groups->clear();
  if (const size_t g = body.find("\"groups\":["); g != std::string::npos) {
    *grouped = true;
    return ParseGroups(body, g, groups);
  }
  *grouped = false;
  Json root;
  if (!JsonReader(body).Parse(&root)) return "response is not JSON";
  const Json* a = root.Get("answer");
  if (a == nullptr) return "response without answer";
  return ReadAnswer(*a, root.Get("stats"), answer);
}

}  // namespace aquabench
