/**
 * @file
 * The perf-regression gate must catch real regressions and ignore
 * noise: an injected slowdown fails, a deterministic-counter drift
 * fails, jitter inside the slack band passes, and informational
 * keys never gate.  These are the properties that make a CI perf
 * gate trustworthy enough to block merges.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/bench_gate.hh"
#include "obs/bench_report.hh"

namespace iracc {
namespace {

using obs::checkBenchGate;
using obs::GateClass;
using obs::GateFinding;
using obs::GateResult;
using obs::GateRule;

using ValueMap = std::map<std::string, double>;

const GateFinding *
findKey(const GateResult &r, const std::string &key)
{
    for (const GateFinding &f : r.findings)
        if (f.key == key)
            return &f;
    return nullptr;
}

TEST(BenchGate, InjectedSlowdownFails)
{
    // The core promise: halve a gated throughput and the gate must
    // fail, naming the regressed key.
    ValueMap baseline = {{"rate_minwhd_full_avx2_cps", 4.0e9}};
    ValueMap slow = {{"rate_minwhd_full_avx2_cps", 2.0e9}};
    GateResult r = checkBenchGate(baseline, {slow},
                                  obs::kernelBenchGateRules());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failedCount(), 1u);
    const GateFinding *f = findKey(r, "rate_minwhd_full_avx2_cps");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->ok);
    EXPECT_NE(f->detail.find("regressed"), std::string::npos);
}

TEST(BenchGate, JitterWithinSlackPasses)
{
    ValueMap baseline = {{"rate_minwhd_full_avx2_cps", 4.0e9}};
    // 20% down is inside the 30% slack band.
    ValueMap jitter = {{"rate_minwhd_full_avx2_cps", 3.2e9}};
    GateResult r = checkBenchGate(baseline, {jitter},
                                  obs::kernelBenchGateRules());
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.gatedCount(), 1u);
}

TEST(BenchGate, MedianAbsorbsOneNoisyRepetition)
{
    // One disturbed repetition out of three must not fail the
    // gate: the median of {4.1, 0.5, 3.9} is 3.9.
    ValueMap baseline = {{"rate_x", 4.0}};
    std::vector<ValueMap> runs = {
        {{"rate_x", 4.1}}, {{"rate_x", 0.5}}, {{"rate_x", 3.9}}};
    GateResult r =
        checkBenchGate(baseline, runs, obs::kernelBenchGateRules());
    EXPECT_TRUE(r.ok);
}

TEST(BenchGate, DeterministicDriftFailsExactly)
{
    // n_* counters are semantics, not performance: off-by-one is a
    // kernel bug even though it is "within 30%".
    ValueMap baseline = {{"n_minwhd_full_comparisons", 5736000.0}};
    ValueMap drifted = {{"n_minwhd_full_comparisons", 5736001.0}};
    GateResult r = checkBenchGate(baseline, {drifted},
                                  obs::kernelBenchGateRules());
    EXPECT_FALSE(r.ok);
    const GateFinding *f =
        findKey(r, "n_minwhd_full_comparisons");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->detail.find("drifted"), std::string::npos);

    // Bit-identical counters pass.
    GateResult same = checkBenchGate(baseline, {baseline},
                                     obs::kernelBenchGateRules());
    EXPECT_TRUE(same.ok);
}

TEST(BenchGate, SpeedupFloorIsAbsolute)
{
    // A speedup can sit within relative slack of a weak baseline
    // and still violate the acceptance floor (>= 2x scalar).
    ValueMap baseline = {{"speedup_unpruned_avx2", 2.2}};
    ValueMap weak = {{"speedup_unpruned_avx2", 1.8}};
    GateResult r = checkBenchGate(baseline, {weak},
                                  obs::kernelBenchGateRules());
    EXPECT_FALSE(r.ok);
    const GateFinding *f = findKey(r, "speedup_unpruned_avx2");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->detail.find("floor"), std::string::npos);
}

TEST(BenchGate, Fig7FleetRulesCatchSlowdownAndFloor)
{
    // The fig7 suite gates the modeled fleet scaling.  An injected
    // slowdown (2-card makespan grows, speedup shrinks) must fail
    // twice over: the speedup drops below the 1.8x acceptance
    // floor AND the deterministic makespan drifts.
    ValueMap baseline = {{"fleetSpeedup2", 1.85},
                         {"fleetMakespan2Cycles", 5751260.0},
                         {"fleetSteals2", 6.0},
                         {"asyncGain", 1.6}};
    ValueMap slow = {{"fleetSpeedup2", 1.2},
                     {"fleetMakespan2Cycles", 8900000.0},
                     {"fleetSteals2", 6.0},
                     {"asyncGain", 1.6}};
    GateResult r =
        checkBenchGate(baseline, {slow}, obs::fig7GateRules());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failedCount(), 2u);
    const GateFinding *speed = findKey(r, "fleetSpeedup2");
    ASSERT_NE(speed, nullptr);
    EXPECT_NE(speed->detail.find("regressed"), std::string::npos);
    const GateFinding *span = findKey(r, "fleetMakespan2Cycles");
    ASSERT_NE(span, nullptr);
    EXPECT_NE(span->detail.find("drifted"), std::string::npos);

    // A weak baseline cannot launder the floor: 1.7x is within
    // slack of 1.75x but still below the 1.8x acceptance bar.
    ValueMap weak_base = {{"fleetSpeedup2", 1.75}};
    ValueMap weak = {{"fleetSpeedup2", 1.7}};
    GateResult floor_r = checkBenchGate(weak_base, {weak},
                                        obs::fig7GateRules());
    EXPECT_FALSE(floor_r.ok);
    const GateFinding *f = findKey(floor_r, "fleetSpeedup2");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->detail.find("floor"), std::string::npos);

    // The identical report passes.
    EXPECT_TRUE(
        checkBenchGate(baseline, {baseline}, obs::fig7GateRules())
            .ok);
}

TEST(BenchGate, Fig8RulesCatchCycleDriftAndSpeedupFloor)
{
    ValueMap baseline = {{"scalarHdcCycles", 52000000.0},
                         {"wide32HdcCycles", 4300000.0},
                         {"width32Speedup", 12.1}};
    // Cycle counts are deterministic: off-by-anything drifts.
    ValueMap drift = baseline;
    drift["wide32HdcCycles"] += 1.0;
    GateResult r =
        checkBenchGate(baseline, {drift}, obs::fig8GateRules());
    EXPECT_FALSE(r.ok);
    const GateFinding *f = findKey(r, "wide32HdcCycles");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->detail.find("drifted"), std::string::npos);

    // A collapsed data-parallel win violates the absolute floor.
    ValueMap collapsed = {{"width32Speedup", 2.0}};
    GateResult fr = checkBenchGate({{"width32Speedup", 2.1}},
                                   {collapsed},
                                   obs::fig8GateRules());
    EXPECT_FALSE(fr.ok);
    const GateFinding *ff = findKey(fr, "width32Speedup");
    ASSERT_NE(ff, nullptr);
    EXPECT_NE(ff->detail.find("floor"), std::string::npos);

    EXPECT_TRUE(
        checkBenchGate(baseline, {baseline}, obs::fig8GateRules())
            .ok);
}

TEST(BenchGate, Fig8WidthCountsKeepEveryDigitThroughTheReport)
{
    // addValue writes six significant digits, which hide a drift of
    // one in an eight-digit cycle count; addCount writes them all,
    // so the Exact rule sees it after the report's text round trip.
    auto roundTrip = [](uint64_t cycles) {
        obs::BenchReport rep("fig8_data_parallel", "Figure 8");
        rep.addCount("w2.hdcCycles", cycles);
        rep.addValue("scalarHdcCycles", static_cast<double>(cycles));
        std::ostringstream os;
        rep.write(os);
        ValueMap values;
        std::string error;
        EXPECT_TRUE(obs::parseBenchValues(
            os.str(), "fig8_data_parallel", &values, &error))
            << error;
        return values;
    };
    const ValueMap base = roundTrip(22232904);
    EXPECT_EQ(base.at("w2.hdcCycles"), 22232904.0);
    GateResult r = checkBenchGate(base, {roundTrip(22232905)},
                                  obs::fig8GateRules());
    EXPECT_FALSE(r.ok);
    const GateFinding *count = findKey(r, "w2.hdcCycles");
    ASSERT_NE(count, nullptr);
    EXPECT_FALSE(count->ok);
    const GateFinding *rounded = findKey(r, "scalarHdcCycles");
    ASSERT_NE(rounded, nullptr);
    EXPECT_TRUE(rounded->ok);
}

TEST(BenchGate, LowerBetterGatesSecondsUpward)
{
    std::vector<GateRule> rules = {
        {"secs_", GateClass::LowerBetter, 0.50, 0.0}};
    ValueMap baseline = {{"secs_job", 10.0}};
    EXPECT_TRUE(
        checkBenchGate(baseline, {{{"secs_job", 14.0}}}, rules).ok);
    EXPECT_FALSE(
        checkBenchGate(baseline, {{{"secs_job", 16.0}}}, rules).ok);
    // Getting faster never fails.
    EXPECT_TRUE(
        checkBenchGate(baseline, {{{"secs_job", 1.0}}}, rules).ok);
}

TEST(BenchGate, MissingKeyFailsNewKeyNotes)
{
    ValueMap baseline = {{"rate_a", 1.0}, {"rate_b", 2.0}};
    ValueMap current = {{"rate_a", 1.0}, {"rate_c", 3.0}};
    GateResult r = checkBenchGate(baseline, {current},
                                  obs::kernelBenchGateRules());
    EXPECT_FALSE(r.ok);
    const GateFinding *gone = findKey(r, "rate_b");
    ASSERT_NE(gone, nullptr);
    EXPECT_FALSE(gone->ok);
    EXPECT_NE(gone->detail.find("missing"), std::string::npos);
    const GateFinding *fresh = findKey(r, "rate_c");
    ASSERT_NE(fresh, nullptr);
    EXPECT_TRUE(fresh->ok);
    EXPECT_FALSE(fresh->gated);
}

TEST(BenchGate, InformationalAndUnmatchedNeverFail)
{
    ValueMap baseline = {{"wall_seconds", 10.0},
                         {"mystery_key", 5.0}};
    ValueMap current = {{"wall_seconds", 1000.0},
                        {"mystery_key", -5.0}};
    GateResult r = checkBenchGate(baseline, {current},
                                  obs::kernelBenchGateRules());
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.gatedCount(), 0u);
}

TEST(BenchGate, PortableModeSkipsMachineBoundMetrics)
{
    // On foreign hardware absolute rates say nothing, but the
    // same-run speedup ratios and deterministic counters still
    // gate: a halved rate passes, a floored speedup still fails.
    std::vector<GateRule> rules = obs::kernelBenchGateRules();
    obs::demoteNonPortable(rules);
    ValueMap baseline = {{"rate_minwhd_full_avx2_cps", 4.0e9},
                         {"speedup_unpruned_avx2", 24.0},
                         {"n_minwhd_full_comparisons", 5736000.0}};
    ValueMap foreign = {{"rate_minwhd_full_avx2_cps", 1.0e9},
                        {"speedup_unpruned_avx2", 22.0},
                        {"n_minwhd_full_comparisons", 5736000.0}};
    EXPECT_TRUE(checkBenchGate(baseline, {foreign}, rules).ok);

    foreign["speedup_unpruned_avx2"] = 1.5; // below the 2x floor
    GateResult r = checkBenchGate(baseline, {foreign}, rules);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failedCount(), 1u);
}

TEST(BenchGate, SlackScalingWidensTheBand)
{
    std::vector<GateRule> rules = obs::kernelBenchGateRules();
    obs::scaleGateSlack(rules, 2.0); // 30% -> 60%
    ValueMap baseline = {{"rate_x", 100.0}};
    ValueMap half = {{"rate_x", 50.0}};
    EXPECT_TRUE(checkBenchGate(baseline, {half}, rules).ok);
    EXPECT_FALSE(checkBenchGate(baseline, {half},
                                obs::kernelBenchGateRules())
                     .ok);
}

TEST(BenchGate, FirstMatchingPrefixWins)
{
    // speedup_unpruned_* must hit the floored rule, not the
    // generic speedup_pruned_/rate_ rules.
    std::vector<GateRule> rules = obs::kernelBenchGateRules();
    ASSERT_FALSE(rules.empty());
    EXPECT_EQ(rules[0].prefix, "speedup_unpruned_");
    EXPECT_GT(rules[0].floor, 0.0);
}

TEST(BenchGate, MedianOf)
{
    EXPECT_DOUBLE_EQ(obs::medianOf({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(obs::medianOf({4.0, 1.0}), 2.5);
    EXPECT_DOUBLE_EQ(obs::medianOf({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(obs::medianOf({}), 0.0);
}

TEST(BenchGate, ParseBenchValues)
{
    std::string good = R"({"schema":"iracc-bench-v1",
        "bench":"kernel_microbench",
        "values":{"rate_a":1.5,"n_b":2}})";
    std::map<std::string, double> values;
    std::string error;
    ASSERT_TRUE(obs::parseBenchValues(good, "kernel_microbench",
                                      &values, &error))
        << error;
    EXPECT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values.at("rate_a"), 1.5);

    // Wrong bench name, wrong schema, malformed JSON all refuse.
    EXPECT_FALSE(
        obs::parseBenchValues(good, "fig9_speedup", &values,
                              &error));
    EXPECT_NE(error.find("mismatch"), std::string::npos);
    EXPECT_FALSE(obs::parseBenchValues(
        R"({"schema":"v2","values":{}})", "", &values, &error));
    EXPECT_FALSE(obs::parseBenchValues("{", "", &values, &error));
}

} // namespace
} // namespace iracc
