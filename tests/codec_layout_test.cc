/**
 * @file
 * Unit tests for the p-ECC stripe geometry.
 */

#include <gtest/gtest.h>

#include "codec/del_ins.hh"
#include "codec/layout.hh"

namespace rtm
{
namespace
{

PeccConfig
cfg(int segments, int lseg, int m, PeccVariant variant)
{
    PeccConfig c;
    c.num_segments = segments;
    c.seg_len = lseg;
    c.correct = m;
    c.variant = variant;
    return c;
}

TEST(Layout, PaperSecdedExampleCodeLength)
{
    // Sec. 4.2.2: two 4-bit segments, m = 1 -> 9 code domains
    // ("Lseg + 5").
    PeccLayout lay =
        computeLayout(cfg(2, 4, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.code_len, 9);
}

TEST(Layout, PaperSedExtraDomains)
{
    // Sec. 4.2.1: Lseg = 4 SED adds five code domains.
    PeccLayout lay =
        computeLayout(cfg(2, 4, 0, PeccVariant::Standard));
    EXPECT_EQ(lay.extraDomains(), 5);
    EXPECT_EQ(lay.extraReadPorts(), 1);
}

TEST(Layout, PaperSecdedOverheadAccounting)
{
    // Default config (8x8, m=1): paper Table 5 reports 17.6% cell
    // overhead; the analytic accounting gives Lseg + 4m - 1 extra
    // domains = 11 -> 17.2%.
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.extraDomains(), 11);
    EXPECT_NEAR(lay.storageOverhead(), 0.172, 0.005);
    EXPECT_EQ(lay.extraReadPorts(), 2);
    EXPECT_EQ(lay.extraWritePorts(), 0);
}

TEST(Layout, PeccOOverheadIndependentOfSegmentLength)
{
    for (int lseg : {4, 8, 16, 32, 64}) {
        PeccLayout lay = computeLayout(
            cfg(2, lseg, 1, PeccVariant::OverheadRegion));
        EXPECT_EQ(lay.extraDomains(), 8) << "Lseg " << lseg;
        EXPECT_EQ(lay.extraReadPorts(), 3);
        EXPECT_EQ(lay.extraWritePorts(), 2);
    }
}

TEST(Layout, PeccOWinsAtLargeSegments)
{
    // Fig. 13's crossover: p-ECC-O's constant overhead beats the
    // Standard variant once segments get long.
    auto std16 = computeLayout(cfg(2, 16, 1, PeccVariant::Standard));
    auto ovr16 =
        computeLayout(cfg(2, 16, 1, PeccVariant::OverheadRegion));
    EXPECT_GT(std16.extraDomains(), ovr16.extraDomains());
    auto std64 = computeLayout(cfg(2, 64, 1, PeccVariant::Standard));
    auto ovr64 =
        computeLayout(cfg(2, 64, 1, PeccVariant::OverheadRegion));
    EXPECT_GT(std64.extraDomains(), 4 * ovr64.extraDomains());
}

TEST(Layout, CodewordAccountingReducesToPerFrameAtOneFrame)
{
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    EXPECT_EQ(lay.config.effectiveCorrect(), 1);
    const PeccConfig code = lay.config.pooledCode();
    EXPECT_EQ(code.correct, 1);
    EXPECT_EQ(code.window(), 2);
    EXPECT_EQ(computeLayout(code).extraDomains(), lay.extraDomains());
    EXPECT_EQ(lay.redundancyAccessesPerWrite(), 0);
}

TEST(Layout, PooledCodeRunsOnTheNarrowestWindow)
{
    // Strength m + log2(F) on the smallest w with 2m' + 2 <= 2^w.
    const struct
    {
        int correct, frames, pooled, window;
    } cases[] = {{1, 2, 2, 3}, {1, 4, 3, 3}, {1, 8, 4, 4},
                 {0, 2, 1, 2}, {2, 2, 3, 3}, {2, 8, 5, 4}};
    for (const auto &k : cases) {
        PeccConfig c = cfg(8, 8, k.correct, PeccVariant::Standard);
        c.codeword_frames = k.frames;
        const PeccConfig code = c.pooledCode();
        EXPECT_EQ(code.correct, k.pooled) << k.correct << "/" << k.frames;
        EXPECT_EQ(code.window(), k.window)
            << k.correct << "/" << k.frames;
        EXPECT_EQ(code.codeword_frames, 1);
    }
    // The del-ins track code pools its burst strength, no window.
    PeccConfig di = cfg(8, 8, 2, PeccVariant::DelIns);
    di.codeword_frames = 2;
    EXPECT_EQ(di.pooledCode().correct, 3);
    EXPECT_EQ(di.pooledCode().window_ports, 0);
}

TEST(Layout, PooledStrengthGrowsLogarithmically)
{
    for (int frames : {2, 4, 8}) {
        PeccConfig c = cfg(8, 8, 1, PeccVariant::Standard);
        c.codeword_frames = frames;
        int boost = 0;
        for (int f = frames; f > 1; f >>= 1)
            ++boost;
        EXPECT_EQ(c.effectiveCorrect(), 1 + boost)
            << "F " << frames;
        EXPECT_EQ(computeLayout(c).redundancyAccessesPerWrite(), 1);
    }
    // The pooled strength is capped by what a per-stripe position
    // code can represent (Lseg - 1).
    PeccConfig tight = cfg(8, 4, 2, PeccVariant::Standard);
    tight.codeword_frames = 8;
    EXPECT_EQ(tight.effectiveCorrect(), 3);
}

TEST(Layout, CodewordOverheadFallsMonotonicallyWithFrames)
{
    double prev = 1e9;
    for (int frames : {1, 2, 4, 8}) {
        PeccConfig c = cfg(8, 8, 1, PeccVariant::Standard);
        c.codeword_frames = frames;
        // One shared region runs the pooled code for all F frames.
        const double overhead =
            static_cast<double>(
                computeLayout(c.pooledCode()).extraDomains()) /
            (frames * c.dataDomains());
        EXPECT_LT(overhead, prev) << "F " << frames;
        EXPECT_GT(overhead, 0.0);
        prev = overhead;
    }
}

TEST(Layout, GeometryErrorDiagnosesBadCodewordFrames)
{
    PeccConfig good = cfg(8, 8, 1, PeccVariant::Standard);
    good.codeword_frames = 4;
    EXPECT_EQ(protectionGeometryError(good, 64), "");

    PeccConfig odd = cfg(8, 8, 1, PeccVariant::Standard);
    odd.codeword_frames = 3;
    EXPECT_NE(protectionGeometryError(odd, 64), "");

    PeccConfig wide = cfg(8, 8, 1, PeccVariant::Standard);
    wide.codeword_frames = 16;
    EXPECT_NE(protectionGeometryError(wide, 64), "");

    // A codeword must divide the bank group evenly.
    PeccConfig straddle = cfg(8, 8, 1, PeccVariant::Standard);
    straddle.codeword_frames = 8;
    EXPECT_NE(protectionGeometryError(straddle, 12), "");
    // frames_per_group = 0 skips the group checks (stripe-level
    // uses).
    EXPECT_EQ(protectionGeometryError(straddle, 0), "");
}

TEST(Layout, GeometryErrorDiagnosesTooShortSegments)
{
    // p-ECC strength is bounded by the largest offset, Lseg - 1.
    EXPECT_EQ(protectionGeometryError(
                  cfg(2, 2, 1, PeccVariant::Standard), 0), "");
    EXPECT_NE(protectionGeometryError(
                  cfg(2, 2, 2, PeccVariant::Standard), 0), "");
    // A k = 2 del-ins track needs k < L, and room for data beside
    // its check bits: L = 4 holds only check bits, L = 5 one datum.
    for (int lseg : {2, 3, 4})
        EXPECT_NE(protectionGeometryError(
                      cfg(2, lseg, 2, PeccVariant::DelIns), 0), "")
            << "Lseg " << lseg;
    EXPECT_EQ(protectionGeometryError(
                  cfg(2, 5, 2, PeccVariant::DelIns), 0), "");
    EXPECT_EQ(DelInsCode::dataBitsFor(5, 2),
              DelInsCode(2, 5, 2).dataBitsPerTrack());
}

TEST(Layout, BaselineHasNoProtectionCosts)
{
    PeccLayout lay = computeLayout(cfg(8, 8, 1, PeccVariant::None));
    EXPECT_EQ(lay.extraDomains(), 0);
    EXPECT_EQ(lay.extraReadPorts(), 0);
    EXPECT_EQ(lay.extraWritePorts(), 0);
    EXPECT_TRUE(lay.window_slots.empty());
}

TEST(Layout, OffsetForIndexCoversSegment)
{
    PeccLayout lay =
        computeLayout(cfg(8, 8, 1, PeccVariant::Standard));
    std::set<int> offsets;
    for (int r = 0; r < 8; ++r) {
        int o = lay.offsetForIndex(r);
        EXPECT_GE(o, 0);
        EXPECT_LT(o, 8);
        offsets.insert(o);
    }
    EXPECT_EQ(offsets.size(), 8u);
    // Home position (offset 0) reads the last index.
    EXPECT_EQ(lay.offsetForIndex(7), 0);
}

class LayoutGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int,
                                                 PeccVariant>>
{
};

TEST_P(LayoutGeometry, PortsAndRegionsStayOnTheWire)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));

    EXPECT_GT(lay.wire_len, 0);
    for (int slot : lay.data_port_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    for (int slot : lay.window_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    for (int slot : lay.left_window_slots) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, lay.wire_len);
    }
    // Data region fits including worst-case excursions; the
    // unprotected baseline reserves no error margin by design (data
    // loss is exactly its failure mode).
    int omax_err = variant == PeccVariant::None
                       ? (lseg - 1)
                       : (lseg - 1) + (m + 1);
    EXPECT_GE(lay.data_base, 0);
    EXPECT_LE(lay.data_base + segments * lseg + omax_err,
              lay.wire_len);
}

TEST_P(LayoutGeometry, DataPortsAlignWithSegments)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));
    ASSERT_EQ(static_cast<int>(lay.data_port_slots.size()), segments);
    for (int s = 0; s < segments; ++s) {
        // Port s sits over the last domain of segment s at home.
        EXPECT_EQ(lay.data_port_slots[static_cast<size_t>(s)],
                  lay.data_base + s * lseg + (lseg - 1));
    }
}

TEST_P(LayoutGeometry, WindowNeverReadsDataSlots)
{
    auto [segments, lseg, m, variant] = GetParam();
    if (variant == PeccVariant::Standard && m >= lseg - 1)
        GTEST_SKIP() << "m too large for this segment length";
    if (variant == PeccVariant::None)
        GTEST_SKIP() << "baseline has no window";
    PeccLayout lay = computeLayout(cfg(segments, lseg, m, variant));
    int data_lo = lay.data_base;
    int data_hi = lay.data_base + segments * lseg; // exclusive
    for (int o = -(m + 1); o <= (lseg - 1) + (m + 1); ++o) {
        for (int slot : lay.window_slots) {
            int tape_idx = slot - o;
            EXPECT_TRUE(tape_idx < data_lo || tape_idx >= data_hi)
                << "offset " << o << " slot " << slot;
        }
        for (int slot : lay.left_window_slots) {
            int tape_idx = slot - o;
            EXPECT_TRUE(tape_idx < data_lo || tape_idx >= data_hi)
                << "offset " << o << " slot " << slot;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutGeometry,
    ::testing::Combine(
        ::testing::Values(1, 2, 8),
        ::testing::Values(4, 8, 16),
        ::testing::Values(0, 1, 2),
        ::testing::Values(PeccVariant::None, PeccVariant::Standard,
                          PeccVariant::OverheadRegion)));

} // namespace
} // namespace rtm
