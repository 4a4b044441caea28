// `aquabench gen`: writes a workload's inputs and its reference answers.
//
// Every value is generated as an integer number of cents and written with
// two decimals, so the double the program parses from the CSV is exactly
// cents / 100.0 — the value the references below are computed from. The
// references use only these values and the p-mapping's probabilities; no
// engine code runs here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "aqua/mapping/serialize.h"
#include "bench.h"

namespace aquabench {
namespace {

using Sum = long double;

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%lld",
                              static_cast<long long>(v));
  out->append(buf, static_cast<size_t>(n));
}

/// Appends cents as "I.FF".
void AppendCents(std::string* out, int64_t cents) {
  AppendInt(out, cents / 100);
  const int frac = static_cast<int>(cents % 100);
  out->push_back('.');
  out->push_back(static_cast<char>('0' + frac / 10));
  out->push_back(static_cast<char>('0' + frac % 10));
}

double FromCents(int64_t cents) { return static_cast<double>(cents) / 100.0; }

double ParseDouble(const char* text) { return std::strtod(text, nullptr); }

bool WriteText(const std::string& path, const std::string& text,
               uint64_t* hash) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  *hash = Fnv1a(text.data(), text.size(), *hash);
  return static_cast<bool>(out);
}

bool WriteMapping(const std::string& path, const aqua::PMapping& pm,
                  uint64_t* hash) {
  // The same writer aqua_gen uses; aqua_cli and aquad read it back with
  // PMappingText::ReadSchemaFile.
  return WriteText(path, aqua::PMappingText::Format(pm), hash);
}

void SetFingerprint(Reference* ref, uint64_t hash) {
  ref->Set(kFingerprintKey, {static_cast<double>(hash >> 32),
                             static_cast<double>(hash & 0xffffffffULL)});
}

// ---------------------------------------------------------------------------
// eBay-shaped bids: second-price proxy bidding, as in the paper's trace.

struct Bid {
  int64_t auction;
  int64_t ordinal;
  int64_t time_ticks;  // 1e-4 days
  int64_t bid_cents;
  int64_t current_cents;
};

/// Generates auctions 1, 2, ... with 6..12 bids each until `max_rows` bids
/// or `max_auctions` auctions, whichever comes first.
std::vector<Bid> GenerateBids(Rng& rng, size_t max_auctions, size_t max_rows) {
  std::vector<Bid> bids;
  for (size_t a = 1; a <= max_auctions && bids.size() < max_rows; ++a) {
    const int64_t n = static_cast<int64_t>(std::min<size_t>(
        static_cast<size_t>(rng.Int(6, 12)), max_rows - bids.size()));
    std::vector<int64_t> times(static_cast<size_t>(n));
    for (int64_t& t : times) t = rng.Int(0, 29999);  // 3 days
    std::sort(times.begin(), times.end());
    int64_t high1 = 0, high2 = 0;
    for (int64_t b = 0; b < n; ++b) {
      int64_t bid;
      if (b == 0) {
        bid = rng.Int(5000, 60000);
        high1 = high2 = bid;
      } else if (rng.Unit() < 0.15) {
        // A losing bid under the standing high.
        bid = high2 + static_cast<int64_t>(
                          static_cast<double>(high1 - high2) * rng.Unit());
      } else {
        bid = static_cast<int64_t>(static_cast<double>(high1) *
                                   (1.0 + 0.08 * rng.Unit())) + 1;
      }
      if (bid > high1) {
        high2 = high1;
        high1 = bid;
      } else if (bid > high2) {
        high2 = bid;
      }
      const int64_t increment =
          std::max<int64_t>(50, static_cast<int64_t>(0.025 * high2));
      const int64_t current = b == 0 ? bid : std::min(high1, high2 + increment);
      bids.push_back({static_cast<int64_t>(a), b + 1, times[b], bid, current});
    }
  }
  return bids;
}

std::string BidsCsv(const std::vector<Bid>& bids) {
  std::string out = "transactionID,auction,time,bid,currentPrice\n";
  out.reserve(bids.size() * 40 + out.size());
  for (const Bid& b : bids) {
    AppendInt(&out, b.auction * 100 + b.ordinal);
    out.push_back(',');
    AppendInt(&out, b.auction);
    out.push_back(',');
    AppendInt(&out, b.time_ticks / 10000);
    out.push_back('.');
    char frac[8];
    std::snprintf(frac, sizeof(frac), "%04lld",
                  static_cast<long long>(b.time_ticks % 10000));
    out += frac;
    out.push_back(',');
    AppendCents(&out, b.bid_cents);
    out.push_back(',');
    AppendCents(&out, b.current_cents);
    out.push_back('\n');
  }
  return out;
}

/// Bids grouped by auction id (ids are 1..k, in order).
std::vector<std::vector<Bid>> ByAuction(const std::vector<Bid>& bids) {
  std::vector<std::vector<Bid>> out;
  for (const Bid& b : bids) {
    if (static_cast<size_t>(b.auction) > out.size()) out.emplace_back();
    out.back().push_back(b);
  }
  return out;
}

// ---------------------------------------------------------------------------
// file-to-answer

/// Exact by-tuple AVG bound by Dinkelbach iteration: each tuple either
/// contributes one of its satisfying values or, when some candidate fails
/// the condition, nothing. `sign` = +1 maximises, -1 minimises.
double AvgBound(const std::vector<std::vector<double>>& sat_values,
                const std::vector<char>& can_drop, double sign) {
  // Start from a feasible choice: every tuple at its best value.
  Sum num = 0, den = 0;
  for (size_t t = 0; t < sat_values.size(); ++t) {
    if (sat_values[t].empty()) continue;
    double best = sat_values[t][0];
    for (double v : sat_values[t]) best = sign > 0 ? std::max(best, v)
                                                   : std::min(best, v);
    num += best;
    den += 1;
  }
  double lambda = static_cast<double>(num / den);
  for (int iter = 0; iter < 100; ++iter) {
    num = 0;
    den = 0;
    for (size_t t = 0; t < sat_values.size(); ++t) {
      if (sat_values[t].empty()) continue;
      double best = sat_values[t][0];
      for (double v : sat_values[t]) best = sign > 0 ? std::max(best, v)
                                                     : std::min(best, v);
      const double gain = sign * (best - lambda);
      if (gain > 0 || !can_drop[t]) {
        num += best;
        den += 1;
      }
    }
    if (den == 0) break;  // lambda is already the single best value
    const double next = static_cast<double>(num / den);
    if (sign * (next - lambda) <= 0) break;
    lambda = next;
  }
  return lambda;
}

int GenFileToAnswer(const Args& args) {
  const Files files = FilesIn(args.dir);
  const aqua::PMapping pm = FtaPMapping();
  const double t = ParseDouble(kFtaThreshold);
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 1);

  // Only the mapped attributes a0, a2, ..., a14 are kept for the
  // references; the rest are written and forgotten.
  std::vector<std::vector<double>> mapped(kFtaMappings,
                                          std::vector<double>(kFtaRows));
  std::string csv = "id";
  for (size_t a = 0; a < kFtaAttributes; ++a) {
    csv += ",a" + std::to_string(a);
  }
  csv += '\n';
  csv.reserve(kFtaRows * (8 + kFtaAttributes * 7));
  for (size_t r = 0; r < kFtaRows; ++r) {
    AppendInt(&csv, static_cast<int64_t>(r));
    for (size_t a = 0; a < kFtaAttributes; ++a) {
      const int64_t cents = rng.Int(0, 99999);
      csv.push_back(',');
      AppendCents(&csv, cents);
      if (a % 2 == 0 && a / 2 < kFtaMappings) mapped[a / 2][r] = FromCents(cents);
    }
    csv.push_back('\n');
  }
  uint64_t hash = 1469598103934665603ULL;
  if (!WriteText(files.data, csv, &hash) ||
      !WriteMapping(files.mapping, pm, &hash)) {
    std::fprintf(stderr, "gen: cannot write inputs under %s\n",
                 args.dir.c_str());
    return 1;
  }
  csv.clear();
  csv.shrink_to_fit();

  const size_t l = kFtaMappings;
  std::vector<double> p(l);
  for (size_t m = 0; m < l; ++m) p[m] = pm.probability(m);

  uint64_t count_all = 0, count_any = 0;
  Sum sum_lo = 0, sum_hi = 0, exp_count = 0, exp_sum = 0;
  std::vector<Sum> cand_sum(l, 0);
  std::vector<uint64_t> cand_count(l, 0);
  const double inf = std::numeric_limits<double>::infinity();
  double min_sat = inf, max_sat = -inf;
  bool has_mandatory = false;
  double mand_min_of_max = inf, mand_max_of_min = -inf;
  std::vector<std::vector<double>> sat_values(kFtaRows);
  std::vector<char> can_drop(kFtaRows, 0);
  for (size_t r = 0; r < kFtaRows; ++r) {
    double lo_c = inf, hi_c = -inf, vmin = inf, vmax = -inf;
    size_t nsat = 0;
    for (size_t m = 0; m < l; ++m) {
      const double v = mapped[m][r];
      const bool sat = v < t;
      const double c = sat ? v : 0.0;
      lo_c = std::min(lo_c, c);
      hi_c = std::max(hi_c, c);
      if (!sat) continue;
      ++nsat;
      exp_count += p[m];
      exp_sum += static_cast<Sum>(p[m]) * v;
      cand_sum[m] += v;
      ++cand_count[m];
      vmin = std::min(vmin, v);
      vmax = std::max(vmax, v);
      sat_values[r].push_back(v);
    }
    sum_lo += lo_c;
    sum_hi += hi_c;
    if (nsat > 0) {
      ++count_any;
      min_sat = std::min(min_sat, vmin);
      max_sat = std::max(max_sat, vmax);
    }
    if (nsat == l) {
      ++count_all;
      has_mandatory = true;
      mand_min_of_max = std::min(mand_min_of_max, vmax);
      mand_max_of_min = std::max(mand_max_of_min, vmin);
    }
    can_drop[r] = nsat < l;
  }

  Reference ref;
  ref.Set("bt_range_count", {static_cast<double>(count_all),
                             static_cast<double>(count_any)});
  ref.Set("bt_range_sum",
          {static_cast<double>(sum_lo), static_cast<double>(sum_hi)});
  ref.Set("bt_range_avg", {AvgBound(sat_values, can_drop, -1),
                           AvgBound(sat_values, can_drop, +1)});
  // MIN: the smallest satisfying value anywhere; at best, every optional
  // tuple drops out and the mandatory ones keep their largest values.
  ref.Set("bt_range_min",
          {min_sat, has_mandatory ? mand_min_of_max : max_sat});
  ref.Set("bt_range_max",
          {has_mandatory ? mand_max_of_min : min_sat, max_sat});
  ref.Set("bt_exp_count", {static_cast<double>(exp_count)});
  ref.Set("bt_exp_sum", {static_cast<double>(exp_sum)});

  // By-table: one answer per candidate.
  std::vector<double> sums(l), avgs(l);
  for (size_t m = 0; m < l; ++m) {
    sums[m] = static_cast<double>(cand_sum[m]);
    avgs[m] = static_cast<double>(cand_sum[m] /
                                  static_cast<Sum>(cand_count[m]));
  }
  auto by_table = [&](const std::string& name, const std::vector<double>& v) {
    ref.Set("tb_range_" + name, {*std::min_element(v.begin(), v.end()),
                                 *std::max_element(v.begin(), v.end())});
    std::vector<double> dist;
    Sum expected = 0;
    for (size_t m = 0; m < l; ++m) {
      dist.push_back(v[m]);
      dist.push_back(p[m]);
      expected += static_cast<Sum>(p[m]) * v[m];
    }
    ref.Set("tb_dist_" + name, dist);
    ref.Set("tb_exp_" + name, {static_cast<double>(expected)});
  };
  by_table("sum", sums);
  by_table("avg", avgs);

  SetFingerprint(&ref, hash);
  return ref.Write(files.reference) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// count-distribution

int GenCountDistribution(const Args& args) {
  const Files files = FilesIn(args.dir);
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 2);
  const aqua::PMapping upm = CdUncertainPMapping();

  // Uncertain shape: every tuple satisfies `value < t` under a random
  // non-empty proper subset of the candidates, so its occurrence
  // probability lies strictly between 0 and 1.
  std::string csv = "id";
  for (size_t a = 0; a < kCdUncertainMappings; ++a) {
    csv += ",a" + std::to_string(a);
  }
  csv += '\n';
  Sum mean = 0, var = 0;
  const int64_t full = (1 << kCdUncertainMappings) - 1;
  for (size_t r = 0; r < kCdUncertainRows; ++r) {
    const int64_t subset = rng.Int(1, full - 1);
    double occ = 0;
    AppendInt(&csv, static_cast<int64_t>(r));
    for (size_t m = 0; m < kCdUncertainMappings; ++m) {
      const bool sat = (subset >> m) & 1;
      // Threshold 500.005: satisfying values are at most 500.00.
      const int64_t cents = sat ? rng.Int(0, 50000) : rng.Int(50001, 99999);
      csv.push_back(',');
      AppendCents(&csv, cents);
      if (sat) occ += upm.probability(m);
    }
    csv.push_back('\n');
    mean += occ;
    var += static_cast<Sum>(occ) * (1.0 - occ);
  }
  uint64_t hash = 1469598103934665603ULL;
  bool ok = WriteText(files.data, csv, &hash) &&
            WriteMapping(files.mapping, upm, &hash);

  // Certain shape: eBay-shaped bids; `auctionId = X` holds under both
  // candidates or neither.
  const std::vector<Bid> bids =
      GenerateBids(rng, std::numeric_limits<size_t>::max(), kCdCertainRows);
  ok = ok && WriteText(files.data2, BidsCsv(bids), &hash) &&
       WriteMapping(files.mapping2, EbayPMapping(), &hash);
  if (!ok) {
    std::fprintf(stderr, "gen: cannot write inputs under %s\n",
                 args.dir.c_str());
    return 1;
  }

  Reference ref;
  ref.Set("cd_uncertain",
          {static_cast<double>(mean), static_cast<double>(var), 0.0,
           static_cast<double>(kCdUncertainRows)});
  const auto auctions = ByAuction(bids);
  ref.Set("cd_auctions", {static_cast<double>(auctions.size())});
  for (size_t a = 0; a < auctions.size(); ++a) {
    ref.Set("cd_certain:" + std::to_string(a + 1),
            {static_cast<double>(auctions[a].size())});
  }
  SetFingerprint(&ref, hash);
  return ref.Write(files.reference) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// service-mix

int GenServiceMix(const Args& args) {
  const Files files = FilesIn(args.dir);
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  const aqua::PMapping pm = EbayPMapping();
  const double p_bid = pm.probability(0), p_cur = pm.probability(1);

  const std::vector<Bid> bids =
      GenerateBids(rng, kSmAuctions, std::numeric_limits<size_t>::max());
  uint64_t hash = 1469598103934665603ULL;
  if (!WriteText(files.data, BidsCsv(bids), &hash) ||
      !WriteMapping(files.mapping, pm, &hash)) {
    std::fprintf(stderr, "gen: cannot write inputs under %s\n",
                 args.dir.c_str());
    return 1;
  }

  Reference ref;
  const auto auctions = ByAuction(bids);
  std::vector<double> grouped;
  Sum nested_bid = 0, nested_cur = 0, nested_lo = 0, nested_hi = 0;
  for (size_t a = 0; a < auctions.size(); ++a) {
    const std::string x = std::to_string(a + 1);
    Sum sb = 0, sc = 0, lo = 0, hi = 0;
    double max_b = 0, max_c = 0, group_lo = 0, group_hi = 0;
    std::vector<double> points;
    for (const Bid& b : auctions[a]) {
      const double vb = FromCents(b.bid_cents), vc = FromCents(b.current_cents);
      sb += vb;
      sc += vc;
      lo += std::min(vb, vc);
      hi += std::max(vb, vc);
      max_b = std::max(max_b, vb);
      max_c = std::max(max_c, vc);
      group_lo = std::max(group_lo, std::min(vb, vc));
      group_hi = std::max(group_hi, std::max(vb, vc));
      points.push_back(vb);
      points.push_back(vc);
    }
    ref.Set("q2p_range:" + x, {static_cast<double>(lo), static_cast<double>(hi)});
    ref.Set("q2p_exp:" + x, {static_cast<double>(p_bid * sb + p_cur * sc)});
    ref.Set("q2p_tdist:" + x,
            {static_cast<double>(sb), p_bid, static_cast<double>(sc), p_cur});
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    std::vector<double> min_cdf = {points.front(), points.back()};
    std::vector<double> max_cdf = min_cdf;
    for (double v : points) {
      // Tuples are independent: Pr[MAX <= v] = prod Pr[price_i <= v] and
      // Pr[MIN <= v] = 1 - prod Pr[price_i > v].
      Sum all_le = 1, all_gt = 1;
      for (const Bid& b : auctions[a]) {
        const double vb = FromCents(b.bid_cents), vc = FromCents(b.current_cents);
        all_le *= (vb <= v ? p_bid : 0.0) + (vc <= v ? p_cur : 0.0);
        all_gt *= (vb > v ? p_bid : 0.0) + (vc > v ? p_cur : 0.0);
      }
      max_cdf.push_back(v);
      max_cdf.push_back(static_cast<double>(all_le));
      min_cdf.push_back(v);
      min_cdf.push_back(static_cast<double>(1 - all_gt));
    }
    ref.Set("min_cdf:" + x, min_cdf);
    ref.Set("max_cdf:" + x, max_cdf);
    grouped.push_back(static_cast<double>(a + 1));
    grouped.push_back(group_lo);
    grouped.push_back(group_hi);
    nested_bid += max_b;
    nested_cur += max_c;
    nested_lo += group_lo;
    nested_hi += group_hi;
  }
  const Sum groups = static_cast<Sum>(auctions.size());
  ref.Set("grouped_range", grouped);
  ref.Set("nested_tdist", {static_cast<double>(nested_bid / groups), p_bid,
                           static_cast<double>(nested_cur / groups), p_cur});
  ref.Set("nested_range", {static_cast<double>(nested_lo / groups),
                           static_cast<double>(nested_hi / groups)});

  for (size_t i = 0; i < kSmCountThresholds; ++i) {
    const double p = ParseDouble(SmCountThreshold(i).c_str());
    uint64_t both = 0, any = 0;
    Sum expected = 0;
    for (const Bid& b : bids) {
      const bool gb = FromCents(b.bid_cents) > p;
      const bool gc = FromCents(b.current_cents) > p;
      both += gb && gc;
      any += gb || gc;
      expected += (gb ? p_bid : 0.0) + (gc ? p_cur : 0.0);
    }
    ref.Set("cnt_range:" + std::to_string(i),
            {static_cast<double>(both), static_cast<double>(any)});
    ref.Set("cnt_exp:" + std::to_string(i), {static_cast<double>(expected)});
  }
  SetFingerprint(&ref, hash);
  return ref.Write(files.reference) ? 0 : 1;
}

}  // namespace

int RunGen(const Args& args) {
  if (args.workload == kFileToAnswer) return GenFileToAnswer(args);
  if (args.workload == kCountDistribution) return GenCountDistribution(args);
  if (args.workload == kServiceMix) return GenServiceMix(args);
  std::fprintf(stderr, "gen: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

}  // namespace aquabench
