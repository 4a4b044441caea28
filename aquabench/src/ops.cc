// The operations of one round of each workload. A run repeats whole rounds,
// so every run attempts the same mix in the same proportions.

#include "bench.h"

namespace aquabench {
namespace {

using aqua::AggregateSemantics;
using aqua::MappingSemantics;

constexpr MappingSemantics kTuple = MappingSemantics::kByTuple;
constexpr MappingSemantics kTable = MappingSemantics::kByTable;
constexpr AggregateSemantics kRange = AggregateSemantics::kRange;
constexpr AggregateSemantics kDist = AggregateSemantics::kDistribution;
constexpr AggregateSemantics kExp = AggregateSemantics::kExpectedValue;

Op MakeOp(std::string label, std::string sql, MappingSemantics ms,
          AggregateSemantics as, Check check, Cell cell, std::string key,
          int source = 0) {
  Op op;
  op.label = std::move(label);
  op.sql = std::move(sql);
  op.mapping = ms;
  op.answer = as;
  op.check = check;
  op.cell = cell;
  op.ref_key = std::move(key);
  op.source = source;
  return op;
}

}  // namespace

std::vector<Op> FtaRound() {
  const std::string where = std::string(" FROM T WHERE value < ") +
                            kFtaThreshold;
  const std::string count = "SELECT COUNT(*)" + where;
  const std::string sum = "SELECT SUM(value)" + where;
  const std::string avg = "SELECT AVG(value)" + where;
  const std::string min = "SELECT MIN(value)" + where;
  const std::string max = "SELECT MAX(value)" + where;
  // The by-tuple O(nm) scan cells run twice per round and everything else
  // once, so the median and the 90th percentile both fall inside the
  // by-tuple latency mode rather than between two modes.
  const std::vector<Op> by_tuple = {
      MakeOp("by-tuple/range/COUNT", count, kTuple, kRange, Check::kRange,
             Cell::kScan, "bt_range_count"),
      MakeOp("by-tuple/range/SUM", sum, kTuple, kRange, Check::kRange,
             Cell::kScan, "bt_range_sum"),
      MakeOp("by-tuple/range/MIN", min, kTuple, kRange, Check::kRange,
             Cell::kScan, "bt_range_min"),
      MakeOp("by-tuple/range/MAX", max, kTuple, kRange, Check::kRange,
             Cell::kScan, "bt_range_max"),
      MakeOp("by-tuple/expected/COUNT", count, kTuple, kExp, Check::kExpected,
             Cell::kScan, "bt_exp_count"),
      // By-tuple expected SUM equals the by-table expected value
      // (Theorem 4): both are checked against the one reference.
      MakeOp("by-tuple/expected/SUM", sum, kTuple, kExp, Check::kExpected,
             Cell::kScan, "tb_exp_sum"),
  };
  std::vector<Op> ops = by_tuple;
  ops.insert(ops.end(), by_tuple.begin(), by_tuple.end());
  const std::vector<Op> once = {
      MakeOp("by-tuple/range/AVG", avg, kTuple, kRange, Check::kRange,
             Cell::kScan, "bt_range_avg"),
      MakeOp("by-table/range/SUM", sum, kTable, kRange, Check::kRange,
             Cell::kScan, "tb_range_sum"),
      MakeOp("by-table/distribution/SUM", sum, kTable, kDist,
             Check::kTableDist, Cell::kScan, "tb_dist_sum"),
      MakeOp("by-table/expected/SUM", sum, kTable, kExp, Check::kExpected,
             Cell::kScan, "tb_exp_sum"),
      MakeOp("by-table/range/AVG", avg, kTable, kRange, Check::kRange,
             Cell::kScan, "tb_range_avg"),
      MakeOp("by-table/distribution/AVG", avg, kTable, kDist,
             Check::kTableDist, Cell::kScan, "tb_dist_avg"),
      MakeOp("by-table/expected/AVG", avg, kTable, kExp, Check::kExpected,
             Cell::kScan, "tb_exp_avg"),
  };
  ops.insert(ops.end(), once.begin(), once.end());
  return ops;
}

std::vector<Op> CdRound(uint64_t seed, uint64_t round, size_t auctions) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + round);
  std::vector<Op> ops;
  ops.push_back(MakeOp("by-tuple/distribution/COUNT uncertain",
                       std::string("SELECT COUNT(*) FROM T WHERE value < ") +
                           kCdThreshold,
                       kTuple, kDist, Check::kCountDist, Cell::kCountUncertain,
                       "cd_uncertain", 0));
  for (int i = 0; i < kCdCertainPerRound; ++i) {
    const std::string x =
        std::to_string(rng.Int(1, static_cast<int64_t>(auctions)));
    ops.push_back(MakeOp("by-tuple/distribution/COUNT certain",
                         "SELECT COUNT(*) FROM T2 WHERE auctionId = " + x,
                         kTuple, kDist, Check::kPointMass, Cell::kCountCertain,
                         "cd_certain:" + x, 1));
  }
  return ops;
}

std::vector<Op> SmRound(uint64_t seed, uint64_t round) {
  Rng rng(seed * 0xA24BAED4963EE407ULL + round);
  auto auction = [&] {
    return std::to_string(rng.Int(1, static_cast<int64_t>(kSmAuctions)));
  };
  auto threshold = [&] {
    return static_cast<size_t>(
        rng.Int(0, static_cast<int64_t>(kSmCountThresholds) - 1));
  };
  auto q2p = [&](AggregateSemantics as, MappingSemantics ms, Check check,
                 const char* key, const char* label) {
    const std::string x = auction();
    return MakeOp(label, "SELECT SUM(price) FROM T2 WHERE auctionId = " + x,
                  ms, as, check, Cell::kScan, std::string(key) + ":" + x);
  };
  auto count = [&](AggregateSemantics as, Check check, const char* key,
                   const char* label) {
    const size_t i = threshold();
    return MakeOp(label,
                  "SELECT COUNT(*) FROM T2 WHERE price > " +
                      SmCountThreshold(i),
                  kTuple, as, check, Cell::kScan,
                  std::string(key) + ":" + std::to_string(i));
  };
  auto extremum = [&](const char* func, const char* key, const char* label) {
    const std::string x = auction();
    return MakeOp(label,
                  std::string("SELECT ") + func +
                      "(price) FROM T2 WHERE auctionId = " + x,
                  kTuple, kDist, Check::kCdf, Cell::kMinMaxDist,
                  std::string(key) + ":" + x);
  };
  const std::string nested =
      "SELECT AVG(R1.price) FROM (SELECT MAX(DISTINCT R2.price) FROM T2 AS "
      "R2 GROUP BY R2.auctionId) AS R1";
  // Weights: each short query four times, then the whole-table queries.
  // The 90th percentile falls in the middle of the nested by-table block
  // (positions 30..33 of 36 when sorted by latency), not on the edge
  // between two latency modes.
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(q2p(kRange, kTuple, Check::kRange, "q2p_range",
                      "Q2' by-tuple/range/SUM"));
    ops.push_back(q2p(kExp, kTuple, Check::kExpected, "q2p_exp",
                      "Q2' by-tuple/expected/SUM"));
    ops.push_back(count(kRange, Check::kRange, "cnt_range",
                        "by-tuple/range/COUNT"));
    ops.push_back(extremum("MIN", "min_cdf", "by-tuple/distribution/MIN"));
    ops.push_back(extremum("MAX", "max_cdf", "by-tuple/distribution/MAX"));
    ops.push_back(q2p(kDist, kTable, Check::kTableDist, "q2p_tdist",
                      "Q2' by-table/distribution/SUM"));
    ops.push_back(count(kExp, Check::kExpected, "cnt_exp",
                        "by-tuple/expected/COUNT"));
    if (i % 2 == 0) {
      ops.push_back(MakeOp("grouped by-tuple/range/MAX DISTINCT",
                           "SELECT MAX(DISTINCT price) FROM T2 GROUP BY "
                           "auctionId",
                           kTuple, kRange, Check::kGroupedRange,
                           Cell::kGrouped, "grouped_range"));
      ops.push_back(MakeOp("Q2 by-tuple/range", nested, kTuple, kRange,
                           Check::kRange, Cell::kNested, "nested_range"));
    }
    ops.push_back(MakeOp("Q2 by-table/distribution", nested, kTable, kDist,
                         Check::kTableDist, Cell::kNested, "nested_tdist"));
  }
  return ops;
}

}  // namespace aquabench
