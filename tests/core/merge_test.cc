// Property tests for the merge layer (core/merge.h): every merge
// operator is the exact combination law for its answer shape, so merging
// the same per-tuple partials grouped into 1, 2, or 7 parts must be
// BYTE-identical — not merely close. All randomized probabilities are
// dyadic (multiples of 1/16) over at most 8 tuples, so every product and
// sum below is exact in double precision and bit-equality is a fair
// assertion: computing a by-tuple cell chunk by chunk and merging never
// changes an answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aqua/common/random.h"
#include "aqua/core/clt.h"
#include "aqua/core/merge.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"

namespace aqua {
namespace {

/// Deterministic dyadic probability in {1/16, ..., 15/16}.
double DyadicProb(uint64_t* state) {
  *state = SplitMix64(*state);
  return static_cast<double>(1 + (*state % 15)) / 16.0;
}

/// The serial COUNT DP over a set of per-tuple satisfaction
/// probabilities: fold one Bernoulli tuple at a time, exactly as
/// ByTuplePDCOUNT accumulates. The merge layer must reproduce this fold
/// no matter how the tuples are grouped into shards.
Distribution CountDp(const std::vector<double>& probs) {
  std::vector<double> acc = {1.0};
  for (const double p : probs) {
    std::vector<double> next(acc.size() + 1, 0.0);
    for (size_t c = 0; c < acc.size(); ++c) {
      next[c] += acc[c] * (1.0 - p);
      next[c + 1] += acc[c] * p;
    }
    acc = std::move(next);
  }
  Distribution d;
  for (size_t c = 0; c < acc.size(); ++c) {
    if (acc[c] > 0.0) d.AddMass(static_cast<double>(c), acc[c]);
  }
  return d;
}

/// Groups `probs` into `shards` contiguous parts and builds one COUNT
/// ShardPartial per part via the serial DP.
std::vector<merge::ShardPartial> CountParts(const std::vector<double>& probs,
                                            size_t shards) {
  std::vector<merge::ShardPartial> parts(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = probs.size() * s / shards;
    const size_t end = probs.size() * (s + 1) / shards;
    parts[s].dist = CountDp(
        std::vector<double>(probs.begin() + begin, probs.begin() + end));
  }
  return parts;
}

TEST(MergeCountTest, ConvolutionIsShardCountInvariant) {
  uint64_t state = 2009;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> probs(8);
    for (double& p : probs) p = DyadicProb(&state);

    const auto serial = CountDp(probs);
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
      const auto merged = merge::MergeCountDistributions(
          CountParts(probs, shards));
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      // Bit-equality: Entry's defaulted operator== compares doubles
      // exactly, which dyadic inputs make legitimate.
      EXPECT_EQ(merged->entries(), serial.entries())
          << "trial " << trial << " shards " << shards;
    }
  }
}

TEST(MergeCountTest, EmptyShardIsIdentity) {
  // A shard that was assigned no rows contributes a deterministic count
  // of nothing: its empty distribution must be the convolution identity.
  merge::ShardPartial loaded;
  loaded.dist.AddMass(0.0, 0.25);
  loaded.dist.AddMass(1.0, 0.75);
  merge::ShardPartial empty;
  const auto merged =
      merge::MergeCountDistributions({loaded, empty});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->entries(), loaded.dist.entries());
}

TEST(MergeCountTest, RejectsNonIntegralOutcomes) {
  merge::ShardPartial bad;
  bad.dist.AddMass(1.5, 1.0);
  EXPECT_FALSE(merge::MergeCountDistributions({bad}).ok());
  merge::ShardPartial negative;
  negative.dist.AddMass(-1.0, 1.0);
  EXPECT_FALSE(merge::MergeCountDistributions({negative}).ok());
}

TEST(MergeSumsTest, RangeAndExpectationAreAdditive) {
  merge::ShardPartial a;
  a.range = Interval{-2.0, 5.0};
  a.expected = 1.25;
  merge::ShardPartial b;
  b.range = Interval{1.0, 3.5};
  b.expected = -0.5;
  const Interval r = merge::MergeIntervalSum({a, b});
  EXPECT_EQ(r.low, -1.0);
  EXPECT_EQ(r.high, 8.5);
  EXPECT_EQ(merge::MergeExpectedSum({a, b}), 0.75);
}

TEST(MergeMomentsTest, MatchesApproxSumOverTheWholeTable) {
  // CLT moments over disjoint row subsets add exactly: splitting the
  // paper's DS2 instance in two and merging must reproduce ApproxSum over
  // the full table bit-for-bit (the per-tuple moment accumulation visits
  // tuples in the same order).
  const Table ds2 = *PaperInstanceDS2();
  const PMapping pm = *MakeEbayPMapping();
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");

  const auto whole = ByTupleCLT::ApproxSum(q, pm, ds2);
  ASSERT_TRUE(whole.ok());

  std::vector<uint32_t> lo, hi;
  for (uint32_t r = 0; r < ds2.num_rows(); ++r) {
    (r < ds2.num_rows() / 2 ? lo : hi).push_back(r);
  }
  const auto part_lo = ByTupleCLT::ApproxSum(q, pm, ds2, &lo);
  const auto part_hi = ByTupleCLT::ApproxSum(q, pm, ds2, &hi);
  ASSERT_TRUE(part_lo.ok() && part_hi.ok());

  const NormalApproximation merged =
      merge::MergeMoments({*part_lo, *part_hi});
  EXPECT_EQ(merged.mean, whole->mean);
  EXPECT_EQ(merged.variance, whole->variance);
}

/// Builds a random per-tuple extreme partial: a handful of dyadic atoms
/// plus dyadic undefined mass, normalized exactly.
merge::ShardPartial RandomExtremePartial(uint64_t* state) {
  merge::ShardPartial p;
  // Outcomes are small integers so duplicate outcomes across shards (the
  // interesting merge case) actually occur.
  *state = SplitMix64(*state);
  const int atoms = 1 + static_cast<int>(*state % 3);
  int sixteenths_left = 16;
  for (int a = 0; a < atoms; ++a) {
    *state = SplitMix64(*state);
    const int share = 1 + static_cast<int>(*state % 4);
    const int used = a == atoms - 1
                         ? std::max(1, sixteenths_left - 4)
                         : std::min(share, sixteenths_left - (atoms - a));
    *state = SplitMix64(*state);
    p.dist.AddMass(static_cast<double>(*state % 6),
                   static_cast<double>(used) / 16.0);
    sixteenths_left -= used;
  }
  p.undefined_mass = static_cast<double>(sixteenths_left) / 16.0;
  return p;
}

merge::ShardPartial ToPartial(const NaiveAnswer& answer) {
  merge::ShardPartial p;
  p.dist = answer.distribution;
  p.undefined_mass = answer.undefined_mass;
  return p;
}

TEST(MergeExtremeTest, CdfProductIsGroupingInvariant) {
  uint64_t state = 42;
  for (const bool is_max : {true, false}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<merge::ShardPartial> tuples;
      for (int t = 0; t < 6; ++t) {
        tuples.push_back(RandomExtremePartial(&state));
      }

      const auto flat = merge::MergeExtremeDistributions(tuples, is_max);
      ASSERT_TRUE(flat.ok()) << flat.status().ToString();

      // Re-associate: merge tuples [0,3) and [3,6) separately, then merge
      // the two intermediate extrema. The CDF product is associative, and
      // with dyadic masses exactly so.
      const auto left = merge::MergeExtremeDistributions(
          {tuples[0], tuples[1], tuples[2]}, is_max);
      const auto right = merge::MergeExtremeDistributions(
          {tuples[3], tuples[4], tuples[5]}, is_max);
      ASSERT_TRUE(left.ok() && right.ok());
      const auto grouped = merge::MergeExtremeDistributions(
          {ToPartial(*left), ToPartial(*right)}, is_max);
      ASSERT_TRUE(grouped.ok());

      EXPECT_EQ(grouped->distribution.entries(), flat->distribution.entries())
          << (is_max ? "MAX" : "MIN") << " trial " << trial;
      EXPECT_EQ(grouped->undefined_mass, flat->undefined_mass);
    }
  }
}

TEST(MergeExtremeTest, SingleShardIsIdentity) {
  uint64_t state = 7;
  const merge::ShardPartial p = RandomExtremePartial(&state);
  for (const bool is_max : {true, false}) {
    const auto merged = merge::MergeExtremeDistributions({p}, is_max);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged->distribution.entries(), p.dist.entries());
    EXPECT_EQ(merged->undefined_mass, p.undefined_mass);
  }
}

TEST(MergeExtremeTest, AllShardsUndefinedMultiplies) {
  merge::ShardPartial a;
  a.undefined_mass = 0.5;
  merge::ShardPartial b;
  b.undefined_mass = 0.25;
  for (const bool is_max : {true, false}) {
    const auto merged = merge::MergeExtremeDistributions({a, b}, is_max);
    ASSERT_TRUE(merged.ok());
    EXPECT_TRUE(merged->distribution.empty());
    EXPECT_EQ(merged->undefined_mass, 0.125);
  }
}

}  // namespace
}  // namespace aqua
