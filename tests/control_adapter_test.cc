/**
 * @file
 * Unit tests for the adaptive shift policy engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "control/adapter.hh"
#include "device/error_model.hh"

namespace rtm
{
namespace
{

class AdapterFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;
    StsTiming timing_{kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9};
    ShiftPlanner planner_{&model_, timing_, 1, 7};
};

TEST_F(AdapterFixture, UnconstrainedAlwaysOneShot)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Unconstrained, 83e6);
    for (Cycles t : {0u, 10u, 1000u}) {
        const SequencePlan &p = a.plan(7, t);
        EXPECT_EQ(p.parts, std::vector<int>{7});
    }
}

TEST_F(AdapterFixture, StepByStepDecomposesToOnes)
{
    ShiftAdapter a(&planner_, ShiftPolicy::StepByStep, 83e6);
    const SequencePlan &p = a.plan(5, 100);
    EXPECT_EQ(p.parts, (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST_F(AdapterFixture, WorstCaseUsesFixedSafeDistance)
{
    // 83M accesses/s -> safe distance 3 (paper Sec. 5.2).
    ShiftAdapter a(&planner_, ShiftPolicy::WorstCase, 83e6);
    EXPECT_EQ(a.worstCaseSafeDistance(), 3);
    const SequencePlan &p = a.plan(7, 1);
    EXPECT_EQ(p.parts, (std::vector<int>{3, 3, 1}));
}

TEST_F(AdapterFixture, AdaptiveRelaxesWithLongIntervals)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Adaptive, 83e6);
    // First request: no history -> most permissive plan.
    const SequencePlan &first = a.plan(7, 0);
    EXPECT_EQ(first.parts.size(), 1u);
    // Back-to-back request (tiny interval): safest decomposition.
    const SequencePlan &hot = a.plan(7, 2);
    EXPECT_EQ(hot.parts.size(), 7u);
    // A long quiet period relaxes the constraint again.
    const SequencePlan &cold = a.plan(7, 2 + 5000000);
    EXPECT_EQ(cold.parts.size(), 1u);
}

TEST_F(AdapterFixture, IntervalTracking)
{
    // Interleaved sub-banks divide the measured interval.
    for (int ways : {1, 4}) {
        ShiftAdapter a(&planner_, ShiftPolicy::Adaptive, 83e6, ways);
        a.plan(3, 1000);
        EXPECT_EQ(a.lastInterval(), std::numeric_limits<Cycles>::max());
        a.plan(3, 1500);
        EXPECT_EQ(a.lastInterval(), 500u / static_cast<Cycles>(ways));
        EXPECT_EQ(a.lastRequest(), 1500u);
        a.plan(3, 1400); // time went backwards (clamped)
        EXPECT_EQ(a.lastInterval(), 0u);
    }
}

TEST_F(AdapterFixture, WorstCaseLatencyBetweenExtremes)
{
    // Fig. 14's ordering: adaptive <= worst-case <= step-by-step in
    // shift latency for a burst of back-to-back long shifts after a
    // long idle period.
    ShiftAdapter uncon(&planner_, ShiftPolicy::Unconstrained, 83e6);
    ShiftAdapter worst(&planner_, ShiftPolicy::WorstCase, 83e6);
    ShiftAdapter steps(&planner_, ShiftPolicy::StepByStep, 83e6);
    Cycles lu = uncon.plan(7, 0).latency;
    Cycles lw = worst.plan(7, 0).latency;
    Cycles ls = steps.plan(7, 0).latency;
    EXPECT_LE(lu, lw);
    EXPECT_LE(lw, ls);
}

TEST_F(AdapterFixture, FixedSplitAccounting)
{
    ShiftAdapter a(&planner_, ShiftPolicy::WorstCase, 83e6);
    const SequencePlan &p = a.plan(7, 0);
    // Latency equals the sum of per-part one-shot latencies.
    Cycles expect = timing_.shiftCycles(3) * 2 +
                    timing_.shiftCycles(1);
    EXPECT_EQ(p.latency, expect);
    // Fail rate equals the union of the parts' rates.
    double rate = std::exp(p.log_fail_rate);
    double manual = 2 * std::exp(planner_.logFailRate(3)) +
                    std::exp(planner_.logFailRate(1));
    EXPECT_NEAR(rate, manual, 1e-3 * manual);
}

TEST_F(AdapterFixture, CandidatesPerPolicy)
{
    ShiftAdapter uncon(&planner_, ShiftPolicy::Unconstrained, 83e6);
    ShiftAdapter steps(&planner_, ShiftPolicy::StepByStep, 83e6);
    ShiftAdapter worst(&planner_, ShiftPolicy::WorstCase, 83e6);
    ShiftAdapter adapt(&planner_, ShiftPolicy::Adaptive, 83e6);
    for (int d = 1; d <= planner_.maxPart(); ++d) {
        ASSERT_EQ(uncon.candidates(d).size(), 1u);
        EXPECT_EQ(uncon.candidates(d)[0].parts, std::vector<int>{d});
        ASSERT_EQ(steps.candidates(d).size(), 1u);
        EXPECT_EQ(steps.candidates(d)[0].parts,
                  std::vector<int>(static_cast<size_t>(d), 1));
        EXPECT_EQ(steps.candidates(d)[0].parts,
                  adapt.cautiousPlan(d).parts);
        ASSERT_EQ(worst.candidates(d).size(), 1u);
        for (int p : worst.candidates(d)[0].parts)
            EXPECT_LE(p, worst.worstCaseSafeDistance());
        // Adaptive selects among the planner's own Pareto front.
        EXPECT_EQ(adapt.candidates(d).data(),
                  planner_.paretoFront(d).data());
        EXPECT_EQ(adapt.candidates(d).size(),
                  planner_.paretoFront(d).size());
    }
    EXPECT_EQ(worst.candidates(7)[0].parts, (std::vector<int>{3, 3, 1}));
}

TEST_F(AdapterFixture, UnconstrainedIsTheFrontsOneShotPlan)
{
    // Each shift operation pays the fixed stage-2 cost, so splitting
    // never beats one shot on latency: the front's fastest plan is
    // {d} at every correction strength.
    for (int correct = 0; correct <= 3; ++correct) {
        ShiftPlanner planner(&model_, timing_, correct, 7);
        ShiftAdapter a(&planner, ShiftPolicy::Unconstrained, 83e6);
        for (int d = 1; d <= 7; ++d) {
            EXPECT_EQ(planner.paretoFront(d).front().parts,
                      std::vector<int>{d})
                << "correct " << correct << " distance " << d;
            EXPECT_EQ(a.candidates(d).front().parts,
                      std::vector<int>{d});
        }
    }
}

TEST_F(AdapterFixture, PlanReferencesOutliveLaterCalls)
{
    for (ShiftPolicy policy :
         {ShiftPolicy::Unconstrained, ShiftPolicy::StepByStep,
          ShiftPolicy::WorstCase, ShiftPolicy::Adaptive}) {
        ShiftAdapter a(&planner_, policy, 83e6);
        const SequencePlan &p = a.plan(7, 0);
        const std::vector<int> parts = p.parts;
        a.plan(3, 10);
        a.cautiousPlan(5);
        a.plan(2, 20);
        EXPECT_EQ(p.parts, parts) << enumTokens(policy).token(policy);
    }
}

TEST_F(AdapterFixture, ChooseMatchesPlannerSelection)
{
    ShiftAdapter a(&planner_, ShiftPolicy::Adaptive, 83e6);
    Cycles now = 0;
    EXPECT_EQ(a.choose(7, now), 0u); // cold memory: fastest plan
    for (Cycles gap : {0u, 1u, 24u, 1000u, 100000u, 5000000u}) {
        now += gap;
        const size_t i = a.choose(7, now);
        EXPECT_EQ(a.lastInterval(), gap);
        EXPECT_EQ(&a.candidates(7)[i], &planner_.planFor(7, gap))
            << "gap " << gap;
    }
}

} // namespace
} // namespace rtm
