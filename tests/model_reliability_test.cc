/**
 * @file
 * Unit tests for the scheme-level reliability mathematics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "model/reliability.hh"
#include "util/prob.hh"

namespace rtm
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

class RelFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;
};

TEST_F(RelFixture, BaselineTurnsEveryErrorIntoSdc)
{
    ReliabilityModel rel(&model_, Scheme::Baseline);
    ShiftReliability r = rel.shiftOp(7);
    EXPECT_NEAR(std::exp(r.log_sdc), 1.10e-3, 1e-5);
    EXPECT_EQ(r.log_due, -kInf);
    EXPECT_EQ(r.log_corrected, -kInf);
}

TEST_F(RelFixture, SedDetectsOddSilentlyPassesEven)
{
    ReliabilityModel rel(&model_, Scheme::SedPecc);
    ShiftReliability r = rel.shiftOp(7);
    // +/-1 detected but uncorrectable (direction unknown) -> DUE.
    EXPECT_NEAR(std::exp(r.log_due), 1.10e-3, 1e-5);
    // +/-2 aliases to "clean" -> SDC.
    EXPECT_NEAR(std::exp(r.log_sdc), 7.57e-15, 1e-17);
    EXPECT_EQ(r.log_corrected, -kInf);
}

TEST_F(RelFixture, SecdedCorrectsOneDetectsTwo)
{
    ReliabilityModel rel(&model_, Scheme::SecdedPecc);
    ShiftReliability r = rel.shiftOp(7);
    EXPECT_NEAR(std::exp(r.log_corrected), 1.10e-3, 1e-5);
    // DUE: the +/-2 alias plus the second-order correction-failure
    // term (k=1 corrected by a 1-step shift that itself fails).
    double due = std::exp(r.log_due);
    double expected_due = 7.57e-15 + 1.10e-3 * 1.37e-21;
    EXPECT_NEAR(due, expected_due, 1e-2 * expected_due);
    // SDC: |k| = 3 miscorrection channel only (tiny).
    EXPECT_LT(r.log_sdc, std::log(1e-18));
    EXPECT_GT(std::exp(r.log_due), std::exp(r.log_sdc));
}

TEST_F(RelFixture, PooledSecdedClassificationIsPinned)
{
    // One letter per step error e = -9..-1, 1..9: Corrected,
    // Miscorrected (SDC), Ambiguous (DUE), Silent (SDC). A pooled
    // codeword of F frames runs m' = 1 + log2(F) on the narrowest
    // window with 2m' + 2 <= 2^w: (w, m') = (2,1) (3,2) (3,3) (4,4).
    const std::pair<int, const char *> pinned[] = {
        {1, "MSMAMSMACCAMSMAMSM"},
        {2, "MSMMAAACCCCAAAMMSM"},
        {4, "MSMMMACCCCCCAMMMSM"},
        {8, "AAAAACCCCCCCCAAAAA"},
    };
    for (const auto &[frames, letters] : pinned) {
        ReliabilityModel rel(&model_, Scheme::SecdedPecc, frames);
        ASSERT_NE(rel.shiftCode(), nullptr);
        std::string got;
        for (int e = -9; e <= 9; ++e) {
            if (e == 0)
                continue;
            switch (rel.shiftCode()->classify(e)) {
              case ErrorClass::Ok: got += 'O'; break;
              case ErrorClass::Corrected: got += 'C'; break;
              case ErrorClass::Miscorrected: got += 'M'; break;
              case ErrorClass::Ambiguous: got += 'A'; break;
              case ErrorClass::Silent: got += 'S'; break;
            }
        }
        EXPECT_EQ(got, letters) << "F " << frames;
    }
}

TEST_F(RelFixture, SchemeOrderingForSdc)
{
    // Fig. 10 ordering: baseline << SED << SECDED for SDC rates.
    ShiftReliability base =
        ReliabilityModel(&model_, Scheme::Baseline).shiftOp(4);
    ShiftReliability sed =
        ReliabilityModel(&model_, Scheme::SedPecc).shiftOp(4);
    ShiftReliability secded =
        ReliabilityModel(&model_, Scheme::SecdedPecc).shiftOp(4);
    EXPECT_GT(base.log_sdc, sed.log_sdc + std::log(1e10));
    EXPECT_GT(sed.log_sdc, secded.log_sdc);
}

TEST_F(RelFixture, SchemeOrderingForDue)
{
    // Fig. 11 ordering: SED has far higher DUE rates than SECDED.
    ShiftReliability sed =
        ReliabilityModel(&model_, Scheme::SedPecc).shiftOp(4);
    ShiftReliability secded =
        ReliabilityModel(&model_, Scheme::SecdedPecc).shiftOp(4);
    EXPECT_GT(sed.log_due, secded.log_due + std::log(1e10));
}

TEST_F(RelFixture, SequenceAccumulatesParts)
{
    ReliabilityModel rel(&model_, Scheme::SecdedPecc);
    ShiftReliability parts = rel.sequence({3, 2, 2});
    double manual = std::exp(rel.shiftOp(3).log_due) +
                    2.0 * std::exp(rel.shiftOp(2).log_due);
    EXPECT_NEAR(std::exp(parts.log_due), manual, 1e-3 * manual);
    // Decomposed 7-step beats one-shot 7-step on DUE (Table 3's
    // entire premise).
    ShiftReliability one_shot = rel.shiftOp(7);
    EXPECT_LT(parts.log_due, one_shot.log_due);
}

TEST_F(RelFixture, StepByStepMinimisesFailures)
{
    ReliabilityModel rel(&model_, Scheme::PeccO);
    ShiftReliability steps =
        rel.sequence(std::vector<int>(7, 1));
    ShiftReliability one_shot = rel.shiftOp(7);
    EXPECT_LT(steps.log_due, one_shot.log_due);
    // 7 x 1-step DUE ~ 7 * 1.37e-21.
    EXPECT_NEAR(std::exp(steps.log_due), 7.0 * 1.37e-21,
                1e-2 * 7.0 * 1.37e-21);
}

TEST_F(RelFixture, Accumulator)
{
    ReliabilityModel rel(&model_, Scheme::SecdedPecc);
    MttfAccumulator acc;
    ShiftReliability r = rel.shiftOp(7);
    acc.add(r, 512.0); // one access = 512 stripes
    acc.addTime(1e-6);
    EXPECT_GT(acc.expectedDue(), 0.0);
    EXPECT_GT(acc.expectedSdc(), 0.0);
    EXPECT_DOUBLE_EQ(acc.seconds(), 1e-6);
    EXPECT_GT(acc.dueMttf(), 0.0);
    EXPECT_LT(acc.dueMttf(), kInf);
    // SDC channel is rarer than DUE for SECDED.
    EXPECT_GT(acc.sdcMttf(), acc.dueMttf());
}

TEST_F(RelFixture, AccumulatorMerge)
{
    ReliabilityModel rel(&model_, Scheme::SecdedPecc);
    MttfAccumulator a, b;
    a.add(rel.shiftOp(3), 10.0);
    a.addTime(1.0);
    b.add(rel.shiftOp(5), 20.0);
    b.addTime(2.0);
    MttfAccumulator merged = a;
    merged.merge(b);
    EXPECT_DOUBLE_EQ(merged.seconds(), 3.0);
    EXPECT_NEAR(merged.expectedDue(),
                a.expectedDue() + b.expectedDue(), 1e-30);
}

TEST_F(RelFixture, EmptyAccumulatorIsImmortal)
{
    MttfAccumulator acc;
    acc.addTime(1.0);
    EXPECT_EQ(acc.sdcMttf(), kInf);
    EXPECT_EQ(acc.dueMttf(), kInf);
}

TEST(Reliability, SteadyStateMttfMatchesFig1Anchors)
{
    // Fig. 1: with the paper's LLC intensity, a raw per-stripe-shift
    // error rate of ~1e-4 yields ~1.33 us MTTF, and 1e-19 meets the
    // 10-year bar. Back-solved intensity ~ 7.5e9 stripe-shifts/s.
    double intensity = 7.5e9;
    double mttf_raw = steadyStateMttf(std::log(1e-4), intensity);
    EXPECT_NEAR(mttf_raw, 1.33e-6, 0.2e-6);
    double mttf_good = steadyStateMttf(std::log(1e-19), intensity);
    EXPECT_GT(mttf_good / kSecondsPerYear, 10.0);
}

} // namespace
} // namespace rtm
