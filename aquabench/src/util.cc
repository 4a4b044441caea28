// Generator, reference store, workload shapes and measurement helpers.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace aquabench {

double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Rng::Int(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

// ---------------------------------------------------------------------------

std::string FtaSchemaSpec() {
  std::string spec = "id:int64";
  for (size_t a = 0; a < kFtaAttributes; ++a) {
    spec += ",a" + std::to_string(a) + ":double";
  }
  return spec;
}

std::string CdUncertainSchemaSpec() {
  std::string spec = "id:int64";
  for (size_t a = 0; a < kCdUncertainMappings; ++a) {
    spec += ",a" + std::to_string(a) + ":double";
  }
  return spec;
}

std::string EbaySchemaSpec() {
  return "transactionID:int64,auction:int64,time:double,bid:double,"
         "currentPrice:double";
}

namespace {

aqua::PMapping MakeOrDie(std::vector<aqua::PMapping::Alternative> alts) {
  auto pm = aqua::PMapping::Make(std::move(alts));
  if (!pm.ok()) {
    std::fprintf(stderr, "aquabench: bad built-in p-mapping: %s\n",
                 pm.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(pm).value();
}

aqua::RelationMapping Relation(const std::string& s, const std::string& t,
                               std::vector<aqua::Correspondence> corr) {
  auto m = aqua::RelationMapping::Make(s, t, std::move(corr));
  if (!m.ok()) {
    std::fprintf(stderr, "aquabench: bad built-in mapping: %s\n",
                 m.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(m).value();
}

}  // namespace

aqua::PMapping FtaPMapping() {
  // Candidate i maps `value` to a_{2i}, with probability proportional to
  // 1/(i+1): a matcher's ranked, normalised scores.
  double total = 0;
  for (size_t i = 0; i < kFtaMappings; ++i) total += 1.0 / (i + 1);
  std::vector<aqua::PMapping::Alternative> alts;
  for (size_t i = 0; i < kFtaMappings; ++i) {
    alts.push_back({Relation("S", "T",
                             {{"id", "id"},
                              {"a" + std::to_string(2 * i), "value"}}),
                    (1.0 / (i + 1)) / total});
  }
  return MakeOrDie(std::move(alts));
}

aqua::PMapping CdUncertainPMapping() {
  static constexpr double kProb[kCdUncertainMappings] = {0.4, 0.3, 0.2, 0.1};
  std::vector<aqua::PMapping::Alternative> alts;
  for (size_t i = 0; i < kCdUncertainMappings; ++i) {
    alts.push_back({Relation("U", "T",
                             {{"id", "id"},
                              {"a" + std::to_string(i), "value"}}),
                    kProb[i]});
  }
  return MakeOrDie(std::move(alts));
}

aqua::PMapping EbayPMapping() {
  const std::vector<aqua::Correspondence> certain = {
      {"transactionID", "transaction"},
      {"auction", "auctionId"},
      {"time", "timeUpdate"}};
  auto with = [&](const char* price_source) {
    std::vector<aqua::Correspondence> c = certain;
    c.push_back({price_source, "price"});
    return Relation("S2", "T2", std::move(c));
  };
  return MakeOrDie({{with("bid"), 0.3}, {with("currentPrice"), 0.7}});
}

std::string SmCountThreshold(size_t i) {
  return std::to_string(100 + 50 * i) + ".005";
}

Files FilesIn(const std::string& dir) {
  return Files{dir + "/data.csv", dir + "/data.pmapping",
               dir + "/bids.csv", dir + "/bids.pmapping",
               dir + "/reference.txt"};
}

// ---------------------------------------------------------------------------

void Reference::Set(const std::string& key, std::vector<double> values) {
  values_[key] = std::move(values);
}

bool Reference::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  for (const auto& [key, values] : values_) {
    out << key << '\t';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ' ';
      out << Num(values[i]);
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool Reference::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    std::vector<double> values;
    std::istringstream nums(line.substr(tab + 1));
    std::string tok;
    while (nums >> tok) values.push_back(std::strtod(tok.c_str(), nullptr));
    values_[line.substr(0, tab)] = std::move(values);
  }
  return true;
}

const std::vector<double>* Reference::Find(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Reference::Perturb(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return false;
  // Large enough to exceed every tolerance, small enough to stay
  // plausible: one unit, or 1% of the value.
  double& v = it->second.front();
  v += std::max(1.0, std::fabs(v) * 0.01);
  return true;
}

// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ChildCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ChildPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void RunResult::Fail(const std::string& what) {
  if (correct) first_error = what;
  correct = false;
}

}  // namespace aquabench
