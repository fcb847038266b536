/**
 * @file
 * Unit tests for the data-placement policies (mem/placement.hh) and
 * their integration with the racetrack bank's shift ledger.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/placement.hh"
#include "mem/rm_bank.hh"

namespace rtm
{
namespace
{

PlacementGeometry
twoGroupGeometry()
{
    PlacementGeometry geom;
    geom.line_frames = 128;
    geom.frames_per_group = 64;
    geom.seg_len = 8;
    return geom;
}

int
homeOffsetOf(const PlacementGeometry &geom, uint64_t frame)
{
    int idx = static_cast<int>(
        frame % static_cast<uint64_t>(geom.frames_per_group));
    return geom.seg_len - 1 - idx % geom.seg_len;
}

TEST(PlacementKindTest, TokenRoundTrip)
{
    for (PlacementKind kind :
         {PlacementKind::Static, PlacementKind::HotCenter,
          PlacementKind::Adaptive}) {
        PlacementKind parsed;
        ASSERT_TRUE(placementKindFromToken(placementKindName(kind),
                                           &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PlacementKind sink;
    EXPECT_FALSE(placementKindFromToken("round-robin", &sink));
}

TEST(StaticPlacementTest, MatchesArithmeticLayoutAndNeverTracks)
{
    PlacementGeometry geom = twoGroupGeometry();
    auto policy = makePlacementPolicy(geom, PlacementConfig{},
                                      HeadPolicy::Stay);
    EXPECT_STREQ(policy->name(), "static");
    EXPECT_FALSE(policy->tracking());
    for (uint64_t f = 0; f < geom.line_frames; ++f)
        EXPECT_EQ(policy->slotOffset(f), homeOffsetOf(geom, f));
}

TEST(StaticPlacementTest, TrackCountsCapturesWithoutRemapping)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.track_counts = true;
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Stay);
    ASSERT_TRUE(policy->tracking());

    std::vector<PlacementMigration> migrations;
    for (int i = 0; i < 500; ++i)
        policy->recordAccess(static_cast<uint64_t>(i % 3),
                             &migrations);
    EXPECT_TRUE(migrations.empty());
    ASSERT_EQ(policy->frameCounts().size(), geom.line_frames);
    uint64_t total = 0;
    for (uint64_t c : policy->frameCounts())
        total += c;
    EXPECT_EQ(total, 500u);
    for (uint64_t f = 0; f < geom.line_frames; ++f)
        EXPECT_EQ(policy->slotOffset(f), homeOffsetOf(geom, f));
}

TEST(HotCenterPlacementTest, OfflineProfilePacksHottestNearAnchor)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.kind = PlacementKind::HotCenter;
    // Group 0 heat strictly decreasing with frame index; group 1
    // cold everywhere.
    config.profile.assign(geom.line_frames, 0);
    for (uint64_t f = 0; f < 64; ++f)
        config.profile[f] = 128 - f;

    // Stay rests mid-segment: anchor 3, proximity order
    // 3,2,4,1,5,0,6,7 with 8 frames per offset.
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Stay);
    const int order[] = {3, 2, 4, 1, 5, 0, 6, 7};
    for (uint64_t f = 0; f < 64; ++f)
        EXPECT_EQ(policy->slotOffset(f), order[f / 8])
            << "frame " << f;

    // Return-home anchors offset 0: hottest eight frames sit at the
    // home position.
    auto home =
        makePlacementPolicy(geom, config, HeadPolicy::ReturnHome);
    for (uint64_t f = 0; f < 64; ++f)
        EXPECT_EQ(home->slotOffset(f), static_cast<int>(f / 8))
            << "frame " << f;
}

TEST(AdaptivePlacementTest, SwapsStayWithinBudgetEveryEpoch)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.kind = PlacementKind::Adaptive;
    config.epoch_accesses = 8;
    config.swap_budget = 2;
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Stay);

    std::vector<PlacementMigration> migrations;
    size_t seen = 0;
    for (int epoch = 0; epoch < 50; ++epoch) {
        for (int i = 0; i < 8; ++i)
            policy->recordAccess(
                static_cast<uint64_t>((epoch + i * 3) % 64),
                &migrations);
        // A swap moves two frames, so per-epoch emission is bounded
        // by twice the budget — and always an even count.
        const size_t added = migrations.size() - seen;
        EXPECT_LE(added, 2u * 2u) << "epoch " << epoch;
        EXPECT_EQ(added % 2, 0u) << "epoch " << epoch;
        seen = migrations.size();
    }
    for (const PlacementMigration &m : migrations)
        EXPECT_NE(m.from_offset, m.to_offset);
}

TEST(AdaptivePlacementTest, ConcentratesHotFramesIntoOneSlot)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.kind = PlacementKind::Adaptive;
    config.epoch_accesses = 8;
    config.swap_budget = 4;
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Stay);

    // Frames 1 and 2 start one slot apart (home offsets 6 and 5)
    // and dominate the stream; the policy must co-locate them.
    ASSERT_NE(policy->slotOffset(1), policy->slotOffset(2));
    std::vector<PlacementMigration> migrations;
    for (int i = 0; i < 64; ++i)
        policy->recordAccess(1 + static_cast<uint64_t>(i % 2),
                             &migrations);
    EXPECT_EQ(policy->slotOffset(1), policy->slotOffset(2));
    EXPECT_FALSE(migrations.empty());
}

TEST(AdaptivePlacementTest, ZeroBudgetNeverMigrates)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.kind = PlacementKind::Adaptive;
    config.epoch_accesses = 4;
    config.swap_budget = 0;
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Stay);
    std::vector<PlacementMigration> migrations;
    for (int i = 0; i < 400; ++i)
        policy->recordAccess(static_cast<uint64_t>(i % 5),
                             &migrations);
    EXPECT_TRUE(migrations.empty());
    for (uint64_t f = 0; f < geom.line_frames; ++f)
        EXPECT_EQ(policy->slotOffset(f), homeOffsetOf(geom, f));
}

TEST(PredictiveHeadTest, RestFollowsTheHottestSlot)
{
    PlacementGeometry geom = twoGroupGeometry();
    PlacementConfig config;
    config.epoch_accesses = 8;
    auto policy =
        makePlacementPolicy(geom, config, HeadPolicy::Predictive);
    ASSERT_TRUE(policy->tracking());
    EXPECT_EQ(policy->restOffset(0), 0);

    // Frame 0 sits at slot 7 and takes the whole epoch: the group's
    // predicted rest moves under it. Group 1 is untouched.
    std::vector<PlacementMigration> migrations;
    for (int i = 0; i < 8; ++i)
        policy->recordAccess(0, &migrations);
    EXPECT_EQ(policy->restOffset(0), 7);
    EXPECT_EQ(policy->restOffset(1), 0);
    EXPECT_TRUE(migrations.empty());
}

// --- bank integration -------------------------------------------------

class PlacementBankFixture : public ::testing::Test
{
  protected:
    PaperCalibratedErrorModel model_;

    RmBank
    makeBank(const PlacementConfig &placement,
             HeadPolicy head = HeadPolicy::Stay)
    {
        RmBankConfig cfg;
        cfg.line_frames = 256;
        cfg.scheme = Scheme::PeccSAdaptive;
        cfg.head_policy = head;
        cfg.placement = placement;
        return RmBank(cfg, &model_, racetrackL3());
    }
};

TEST_F(PlacementBankFixture, AdaptiveMigrationsReconcileWithLedger)
{
    PlacementConfig adaptive;
    adaptive.kind = PlacementKind::Adaptive;
    adaptive.epoch_accesses = 16;
    adaptive.swap_budget = 4;
    RmBank bank = makeBank(adaptive);

    Cycles now = 0;
    for (int i = 0; i < 4000; ++i) {
        // Skewed stream across both groups so epochs fire and swaps
        // are justified.
        uint64_t frame = (i % 3 == 0)
                             ? static_cast<uint64_t>(i % 7)
                             : static_cast<uint64_t>(
                                   (i * 37) % 256);
        now += bank.accessFrame(frame, now).latency + 10;
    }
    const RmBankStats &s = bank.stats();
    EXPECT_GT(s.migrations, 0u);
    EXPECT_GT(s.migration_steps, 0u);
    // Migration work is folded into the shift ledger and the
    // per-group slices must sum exactly to the bank aggregates.
    EXPECT_LE(s.migration_steps, s.shift_steps);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

TEST_F(PlacementBankFixture, StaticKnobsAreInert)
{
    // Non-default epoch/budget/tracking knobs on the static policy
    // must not change a single cost: the golden baseline may not
    // depend on placement bookkeeping.
    RmBank plain = makeBank(PlacementConfig{});
    PlacementConfig knobs;
    knobs.epoch_accesses = 4;
    knobs.swap_budget = 1;
    knobs.track_counts = true;
    RmBank tracked = makeBank(knobs);

    Cycles now = 0;
    for (int i = 0; i < 3000; ++i) {
        uint64_t frame = static_cast<uint64_t>((i * 13) % 256);
        ShiftCost a = plain.accessFrame(frame, now);
        ShiftCost b = tracked.accessFrame(frame, now);
        ASSERT_EQ(a.latency, b.latency) << "access " << i;
        ASSERT_EQ(a.total_steps, b.total_steps) << "access " << i;
        ASSERT_EQ(a.energy, b.energy) << "access " << i;
        now += a.latency + 25;
    }
    EXPECT_EQ(plain.stats().shift_steps, tracked.stats().shift_steps);
    EXPECT_EQ(tracked.stats().migrations, 0u);
    // The tracking run additionally captured a usable profile.
    uint64_t total = 0;
    for (uint64_t c : tracked.frameAccessCounts())
        total += c;
    EXPECT_EQ(total, 3000u);
}

TEST_F(PlacementBankFixture, HotCenterOfflineChargesNoMigrations)
{
    PlacementConfig offline;
    offline.kind = PlacementKind::HotCenter;
    offline.profile.assign(256, 1);
    RmBank bank = makeBank(offline);
    Cycles now = 0;
    for (int i = 0; i < 1000; ++i)
        now += bank.accessFrame(static_cast<uint64_t>(i % 256), now)
                   .latency +
               10;
    EXPECT_EQ(bank.stats().migrations, 0u);
    EXPECT_EQ(bank.stats().migration_steps, 0u);
    EXPECT_EQ(bank.ledgerViolation(), "");
}

} // anonymous namespace
} // namespace rtm
