// Failpoint registry tests: spec grammar, trigger policies, arming and
// introspection, the config surfaces, and the disarmed fast path. The
// suite arms only real inventory sites and always disarms them, so the
// rest of the process is unaffected.

#include "aqua/common/failpoint.h"

#include <cstdlib>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace aqua::fault {
namespace {

// Any real site works for registry-behavior tests; pick a stable one.
constexpr const char* kSite = "storage/csv/read-file";

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { DisableAll(); }
};

TEST_F(FailpointTest, ParseActionOnly) {
  const auto spec = ParseSpec("error(unavailable)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->trigger, FaultTrigger::kAlways);
  EXPECT_EQ(spec->kind, FaultKind::kError);
  EXPECT_EQ(spec->code, StatusCode::kUnavailable);
}

TEST_F(FailpointTest, ParseTriggerAndAction) {
  const auto spec = ParseSpec("every(3)*delay(25)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->trigger, FaultTrigger::kEveryN);
  EXPECT_EQ(spec->n, 3u);
  EXPECT_EQ(spec->kind, FaultKind::kDelay);
  EXPECT_EQ(spec->delay_ms, 25);
}

TEST_F(FailpointTest, ParseErrorWithMessage) {
  const auto spec = ParseSpec("once*error(internal,disk on fire)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->trigger, FaultTrigger::kOnce);
  EXPECT_EQ(spec->code, StatusCode::kInternal);
  EXPECT_EQ(spec->message, "disk on fire");
}

TEST_F(FailpointTest, ParseProbWithSeed) {
  const auto spec = ParseSpec("p(0.25,42)*error(unavailable)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->trigger, FaultTrigger::kProb);
  EXPECT_DOUBLE_EQ(spec->prob, 0.25);
  EXPECT_EQ(spec->seed, 42u);
}

TEST_F(FailpointTest, ParsePartialAndOff) {
  ASSERT_TRUE(ParseSpec("partial").ok());
  EXPECT_EQ(ParseSpec("partial")->kind, FaultKind::kPartial);
  EXPECT_EQ(ParseSpec("off")->kind, FaultKind::kOff);
}

TEST_F(FailpointTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseSpec("").ok());
  EXPECT_FALSE(ParseSpec("explode").ok());
  EXPECT_FALSE(ParseSpec("error(no-such-code)").ok());
  EXPECT_FALSE(ParseSpec("error(ok)").ok());  // injecting OK is meaningless
  EXPECT_FALSE(ParseSpec("every(x)*error(unavailable)").ok());
  EXPECT_FALSE(ParseSpec("p(1.5)*error(unavailable)").ok());
  EXPECT_FALSE(ParseSpec("once*").ok());
  EXPECT_FALSE(ParseSpec("delay(-1)").ok());
}

TEST_F(FailpointTest, SpecToStringRoundTrips) {
  for (const char* text :
       {"error(unavailable)", "once*error(internal,boom)", "every(3)*delay(25)",
        "after(2)*error(resource-exhausted)", "partial", "off"}) {
    const auto spec = ParseSpec(text);
    ASSERT_TRUE(spec.ok()) << text;
    const auto back = ParseSpec(spec->ToString());
    ASSERT_TRUE(back.ok()) << spec->ToString();
    EXPECT_EQ(back->ToString(), spec->ToString());
  }
}

TEST_F(FailpointTest, ProbabilityTriggerRoundTripsExactly) {
  const auto spec = ParseSpec("p(0.123456789,7)*error(unavailable)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->ToString(), "p(0.123456789,7)*error(unavailable)");
  const auto back = ParseSpec(spec->ToString());
  ASSERT_TRUE(back.ok()) << spec->ToString();
  EXPECT_EQ(back->prob, spec->prob);
  EXPECT_EQ(back->seed, 7u);
}

TEST_F(FailpointTest, DisarmedIsNotArmedAndEvaluatesOk) {
  EXPECT_FALSE(Armed());
  EXPECT_TRUE(Evaluate(kSite).ok());
  EXPECT_EQ(StatsFor(kSite).hit_count, 0u);  // disabled sites don't count
}

TEST_F(FailpointTest, EnableUnknownSiteIsNotFound) {
  const Status s = Enable("no/such/site", "error(unavailable)");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(Armed());
}

TEST_F(FailpointTest, EnableBadSpecIsInvalidArgument) {
  EXPECT_EQ(Enable(kSite, "explode").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(Armed());
}

TEST_F(FailpointTest, AlwaysErrorFiresEveryEvaluation) {
  ASSERT_TRUE(Enable(kSite, "error(unavailable,injected)").ok());
  EXPECT_TRUE(Armed());
  for (int i = 0; i < 3; ++i) {
    const Status s = Evaluate(kSite);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
    EXPECT_EQ(s.message(), "injected");
  }
  EXPECT_EQ(StatsFor(kSite).hit_count, 3u);
  EXPECT_EQ(StatsFor(kSite).fire_count, 3u);
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  ASSERT_TRUE(Enable(kSite, "once*error(unavailable)").ok());
  EXPECT_FALSE(Evaluate(kSite).ok());
  EXPECT_TRUE(Evaluate(kSite).ok());
  EXPECT_TRUE(Evaluate(kSite).ok());
  EXPECT_EQ(StatsFor(kSite).fire_count, 1u);
}

TEST_F(FailpointTest, EveryNFiresOnMultiples) {
  ASSERT_TRUE(Enable(kSite, "every(2)*error(unavailable)").ok());
  EXPECT_TRUE(Evaluate(kSite).ok());    // 1
  EXPECT_FALSE(Evaluate(kSite).ok());   // 2
  EXPECT_TRUE(Evaluate(kSite).ok());    // 3
  EXPECT_FALSE(Evaluate(kSite).ok());   // 4
}

TEST_F(FailpointTest, AfterNSkipsThenFiresForever) {
  ASSERT_TRUE(Enable(kSite, "after(2)*error(unavailable)").ok());
  EXPECT_TRUE(Evaluate(kSite).ok());    // 1
  EXPECT_TRUE(Evaluate(kSite).ok());    // 2
  EXPECT_FALSE(Evaluate(kSite).ok());   // 3
  EXPECT_FALSE(Evaluate(kSite).ok());   // 4
}

TEST_F(FailpointTest, ProbStreamIsDeterministicPerSeed) {
  auto fires = [&](uint64_t seed) {
    std::string pattern;
    const std::string spec =
        "p(0.5," + std::to_string(seed) + ")*error(unavailable)";
    EXPECT_TRUE(Enable(kSite, spec).ok());
    for (int i = 0; i < 32; ++i) {
      pattern += Evaluate(kSite).ok() ? '.' : 'X';
    }
    Disable(kSite);
    return pattern;
  };
  const std::string a = fires(7);
  const std::string b = fires(7);
  const std::string c = fires(8);
  EXPECT_EQ(a, b);                       // same seed, same evaluations
  EXPECT_NE(a, std::string(32, '.'));    // p=0.5 over 32 draws fires some
  EXPECT_NE(a, c);                       // different seed, different stream
}

TEST_F(FailpointTest, ReEnableResetsCounters) {
  ASSERT_TRUE(Enable(kSite, "once*error(unavailable)").ok());
  EXPECT_FALSE(Evaluate(kSite).ok());
  ASSERT_TRUE(Enable(kSite, "once*error(unavailable)").ok());
  EXPECT_EQ(StatsFor(kSite).hit_count, 0u);
  EXPECT_FALSE(Evaluate(kSite).ok());  // fires again after the reset
}

TEST_F(FailpointTest, PartialReportsThroughInjectPartialNotEvaluate) {
  ASSERT_TRUE(Enable(kSite, "partial").ok());
  EXPECT_TRUE(Evaluate(kSite).ok());   // partial never surfaces as error
  EXPECT_TRUE(InjectPartial(kSite));
  Disable(kSite);
  EXPECT_FALSE(InjectPartial(kSite));
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp(kSite, "error(unavailable)");
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(Armed());
    EXPECT_FALSE(Evaluate(kSite).ok());
  }
  EXPECT_FALSE(Armed());
  EXPECT_TRUE(Evaluate(kSite).ok());
}

TEST_F(FailpointTest, ConfigureFromStringArmsMultipleSites) {
  ASSERT_TRUE(ConfigureFromString(
                  "storage/csv/read-file=once*error(unavailable);"
                  "core/engine/exact=delay(1)")
                  .ok());
  EXPECT_FALSE(Evaluate("storage/csv/read-file").ok());
  EXPECT_TRUE(Evaluate("core/engine/exact").ok());
  EXPECT_EQ(StatsFor("core/engine/exact").fire_count, 1u);
}

TEST_F(FailpointTest, ConfigureFromStringRejectsBadItems) {
  EXPECT_FALSE(ConfigureFromString("no/such/site=error(unavailable)").ok());
  EXPECT_FALSE(ConfigureFromString("storage/csv/read-file").ok());
}

TEST_F(FailpointTest, ConfigureFromEnvReadsVariable) {
  ::setenv("AQUA_FAILPOINTS", "storage/csv/read-file=once*error(unavailable)",
           1);
  const Status applied = ConfigureFromEnv();
  ::unsetenv("AQUA_FAILPOINTS");
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(Evaluate("storage/csv/read-file").ok());
}

TEST_F(FailpointTest, ConfigureFromEnvUnsetIsNoOp) {
  ::unsetenv("AQUA_FAILPOINTS");
  EXPECT_TRUE(ConfigureFromEnv().ok());
  EXPECT_FALSE(Armed());
}

TEST_F(FailpointTest, InventoryIsStableAndWellFormed) {
  const auto& sites = AllSites();
  EXPECT_GE(sites.size(), 10u);
  std::set<std::string_view> names;
  for (const SiteInfo& site : sites) {
    EXPECT_FALSE(site.name.empty());
    EXPECT_FALSE(site.description.empty());
    EXPECT_TRUE(names.insert(site.name).second) << site.name << " duplicated";
    EXPECT_TRUE(IsKnownSite(site.name));
  }
  EXPECT_FALSE(IsKnownSite("no/such/site"));
}

}  // namespace
}  // namespace aqua::fault
