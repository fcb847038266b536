#include "placement.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rtm
{

constexpr EnumToken<PlacementKind> kPlacementRows[] = {
    {PlacementKind::Static, "static"},
    {PlacementKind::HotCenter, "hot-center"},
    {PlacementKind::Adaptive, "adaptive"},
};
constexpr EnumTokens<PlacementKind> kPlacementTokens("placement policy",
                                                     kPlacementRows);

const EnumTokens<PlacementKind> &
enumTokens(PlacementKind)
{
    return kPlacementTokens;
}

const char *
placementKindName(PlacementKind kind)
{
    return kPlacementTokens.token(kind);
}

bool
placementKindFromToken(const std::string &token, PlacementKind *out)
{
    return kPlacementTokens.parse(token, out);
}

PlacementPolicy::PlacementPolicy(const PlacementGeometry &geom,
                                 const PlacementConfig &config,
                                 HeadPolicy head_policy)
    : geom_(geom), config_(config), head_policy_(head_policy)
{
    if (geom_.line_frames == 0)
        rtm_fatal("placement needs at least one frame");
    if (geom_.frames_per_group % geom_.seg_len != 0)
        rtm_fatal("frames_per_group must be a multiple of seg_len");
    if (config_.epoch_accesses == 0)
        rtm_fatal("placement epoch must be >= 1 access");
    if (config_.swap_budget < 0)
        rtm_fatal("placement swap budget must be >= 0");
    if (!config_.profile.empty() &&
        config_.profile.size() != geom_.line_frames) {
        rtm_fatal("placement profile covers %zu frames, bank has "
                  "%llu",
                  config_.profile.size(),
                  static_cast<unsigned long long>(
                      geom_.line_frames));
    }
    fixed_rest_ = head_policy_ == HeadPolicy::Center
                      ? (geom_.seg_len - 1) / 2
                      : 0;
    // Tracking is opt-in per policy; the base class only turns it on
    // for needs every policy shares (predictive rest scheduling,
    // explicit profiling passes). Subclasses OR-in their own.
    tracking_ = config_.track_counts ||
                head_policy_ == HeadPolicy::Predictive;

    uint64_t groups =
        (geom_.line_frames +
         static_cast<uint64_t>(geom_.frames_per_group) - 1) /
        static_cast<uint64_t>(geom_.frames_per_group);
    if (head_policy_ == HeadPolicy::Predictive)
        group_rest_.assign(groups, 0);
}

void
PlacementPolicy::frameRange(uint64_t group, uint64_t *first,
                            uint64_t *last) const
{
    *first = group * static_cast<uint64_t>(geom_.frames_per_group);
    *last = std::min(*first + static_cast<uint64_t>(
                                  geom_.frames_per_group),
                     geom_.line_frames);
}

std::vector<int>
PlacementPolicy::offsetsByProximity(uint64_t group) const
{
    // Anchor the packing on where the heads will actually be: the
    // drift target for the drifting policies, the predicted rest for
    // predictive, and the segment midpoint for stay (no drift target
    // exists, so clustering around the center minimises the expected
    // hop between consecutive hot frames).
    int anchor;
    switch (head_policy_) {
      case HeadPolicy::ReturnHome:
        anchor = 0;
        break;
      case HeadPolicy::Center:
        anchor = fixed_rest_;
        break;
      case HeadPolicy::Predictive:
        anchor = group_rest_[group];
        break;
      case HeadPolicy::Stay:
      default:
        anchor = (geom_.seg_len - 1) / 2;
        break;
    }
    std::vector<int> offsets(static_cast<size_t>(geom_.seg_len));
    for (int o = 0; o < geom_.seg_len; ++o)
        offsets[static_cast<size_t>(o)] = o;
    std::sort(offsets.begin(), offsets.end(),
              [anchor](int a, int b) {
                  int da = std::abs(a - anchor);
                  int db = std::abs(b - anchor);
                  if (da != db)
                      return da < db;
                  return a < b;
              });
    return offsets;
}

void
PlacementPolicy::updateRest(uint64_t group)
{
    uint64_t first, last;
    frameRange(group, &first, &last);
    // Rest under the slot that served the most accesses this epoch;
    // ties toward the lower offset, and an idle group keeps its
    // previous prediction.
    std::vector<uint64_t> per_offset(
        static_cast<size_t>(geom_.seg_len), 0);
    for (uint64_t f = first; f < last; ++f)
        per_offset[static_cast<size_t>(slotOffset(f))] +=
            frame_count_[f];
    uint64_t best = 0;
    int best_offset = group_rest_[group];
    for (int o = 0; o < geom_.seg_len; ++o) {
        uint64_t c = per_offset[static_cast<size_t>(o)];
        if (c > best) {
            best = c;
            best_offset = o;
        }
    }
    group_rest_[group] = static_cast<int8_t>(best_offset);
}

void
PlacementPolicy::recordAccess(uint64_t frame,
                              std::vector<PlacementMigration> *out)
{
    if (!tracking_)
        return;
    if (frame_count_.empty()) {
        // Lazily sized: most banks never track.
        frame_count_.assign(geom_.line_frames, 0);
        uint64_t groups =
            (geom_.line_frames +
             static_cast<uint64_t>(geom_.frames_per_group) - 1) /
            static_cast<uint64_t>(geom_.frames_per_group);
        group_since_epoch_.assign(groups, 0);
        group_epochs_.assign(groups, 0);
    }
    ++frame_count_[frame];
    uint64_t g = groupOf(frame);
    if (++group_since_epoch_[g] < config_.epoch_accesses)
        return;
    group_since_epoch_[g] = 0;
    ++group_epochs_[g];
    onEpoch(g, out);
    if (head_policy_ == HeadPolicy::Predictive)
        updateRest(g);
    if (agesCounts() && group_epochs_[g] % kAgePeriod == 0) {
        // Exponential aging keeps the counters responsive to phase
        // changes without forgetting the ranking outright.
        uint64_t first, last;
        frameRange(g, &first, &last);
        for (uint64_t f = first; f < last; ++f)
            frame_count_[f] >>= 1;
    }
}

namespace
{

/** Today's layout: slot by arithmetic, nothing to learn. */
class StaticPlacement : public PlacementPolicy
{
  public:
    StaticPlacement(const PlacementGeometry &geom,
                    const PlacementConfig &config, HeadPolicy head)
        : PlacementPolicy(geom, config, head)
    {
    }

    const char *name() const override { return "static"; }

    int slotOffset(uint64_t frame) const override
    {
        return homeOffset(frame);
    }
};

/**
 * Shared layout table for the remapping policies: per-frame slot
 * offsets initialised to the arithmetic layout.
 */
class TablePlacement : public PlacementPolicy
{
  public:
    TablePlacement(const PlacementGeometry &geom,
                   const PlacementConfig &config, HeadPolicy head)
        : PlacementPolicy(geom, config, head),
          slot_(geom.line_frames)
    {
        for (uint64_t f = 0; f < geom_.line_frames; ++f)
            slot_[f] = static_cast<int8_t>(homeOffset(f));
    }

    int slotOffset(uint64_t frame) const override
    {
        return slot_[frame];
    }

  protected:
    /**
     * Pack `group`'s frames hottest-first into the slots nearest the
     * rest anchor (ShiftsReduce's center-out order), respecting the
     * per-offset capacity.
     */
    void assignHotCenter(uint64_t group, const uint64_t *counts)
    {
        uint64_t first, last;
        frameRange(group, &first, &last);
        std::vector<uint64_t> ranked(last - first);
        for (uint64_t f = first; f < last; ++f)
            ranked[f - first] = f;
        std::stable_sort(ranked.begin(), ranked.end(),
                         [counts](uint64_t a, uint64_t b) {
                             if (counts[a] != counts[b])
                                 return counts[a] > counts[b];
                             return a < b;
                         });
        const std::vector<int> order = offsetsByProximity(group);
        const int cap = slotsPerOffset();
        for (size_t i = 0; i < ranked.size(); ++i) {
            uint64_t f = ranked[i];
            slot_[f] = static_cast<int8_t>(
                order[std::min(i / static_cast<size_t>(cap),
                               order.size() - 1)]);
        }
    }

    std::vector<int8_t> slot_;
};

/**
 * ShiftsReduce-style frequency placement from an offline profile:
 * the layout is fixed at construction (the data is laid out before
 * the cache fills, so no migration cost is charged).
 */
class HotCenterPlacement : public TablePlacement
{
  public:
    HotCenterPlacement(const PlacementGeometry &geom,
                       const PlacementConfig &config,
                       HeadPolicy head)
        : TablePlacement(geom, config, head)
    {
        if (config_.profile.empty())
            rtm_fatal("hot-center placement needs an offline profile");
        const uint64_t fpg =
            static_cast<uint64_t>(geom_.frames_per_group);
        const uint64_t groups = (geom_.line_frames + fpg - 1) / fpg;
        for (uint64_t g = 0; g < groups; ++g)
            assignHotCenter(g, config_.profile.data());
    }

    const char *name() const override { return "hot-center"; }
};

/**
 * Online remapping: every epoch a group concentrates its hottest
 * frames into the slot offset that already carries the most heat,
 * making up to `swap_budget` hot/cold swaps. Concentration zeroes
 * the head travel between the frames that dominate the access
 * stream (a stay-put head never leaves the slot while they trade
 * hits), and anchoring on the already-hottest offset makes the
 * target stable and the assembly cheap: the frames with the most
 * heat are disproportionately already there. A hysteresis gate (an
 * absolute margin for cold residents, a 1.5x heat ratio for warm
 * ones) stops the layout from chasing sampling noise — once the hot
 * set is resident, migrations cease. Counts age (halve) every
 * kAgePeriod epochs so the layout follows phase changes.
 */
class AdaptivePlacement : public TablePlacement
{
  public:
    AdaptivePlacement(const PlacementGeometry &geom,
                      const PlacementConfig &config, HeadPolicy head)
        : TablePlacement(geom, config, head)
    {
        tracking_ = true;
    }

    const char *name() const override { return "adaptive"; }

  protected:
    bool agesCounts() const override { return true; }

    void onEpoch(uint64_t group,
                 std::vector<PlacementMigration> *out) override
    {
        if (config_.swap_budget == 0)
            return;
        uint64_t first, last;
        frameRange(group, &first, &last);
        const uint64_t *counts = frame_count_.data();

        // Target slot: the offset whose residents drew the most
        // accesses. Ties toward the lower offset for determinism.
        std::vector<uint64_t> per_offset(
            static_cast<size_t>(geom_.seg_len), 0);
        for (uint64_t f = first; f < last; ++f)
            per_offset[static_cast<size_t>(slot_[f])] += counts[f];
        int target = 0;
        for (int o = 1; o < geom_.seg_len; ++o)
            if (per_offset[static_cast<size_t>(o)] >
                per_offset[static_cast<size_t>(target)])
                target = o;

        // Hottest outside frames, coldest residents.
        const int cap = slotsPerOffset();
        std::vector<uint64_t> outside, resident;
        for (uint64_t f = first; f < last; ++f)
            (slot_[f] == target ? resident : outside).push_back(f);
        std::stable_sort(outside.begin(), outside.end(),
                         [counts](uint64_t a, uint64_t b) {
                             if (counts[a] != counts[b])
                                 return counts[a] > counts[b];
                             return a < b;
                         });
        std::stable_sort(resident.begin(), resident.end(),
                         [counts](uint64_t a, uint64_t b) {
                             if (counts[a] != counts[b])
                                 return counts[a] < counts[b];
                             return a < b;
                         });
        int swaps = 0;
        for (size_t i = 0;
             i < outside.size() && i < resident.size() &&
             static_cast<int>(i) < cap &&
             swaps < config_.swap_budget;
             ++i) {
            uint64_t a = outside[i];  // hot, wants in
            uint64_t b = resident[i]; // cold, gets a's old slot
            // The move must clearly pay for its shift cost. Two
            // regimes: promoting a proven frame over a cold resident
            // needs only a small absolute margin (the saving scales
            // with the rate gap), while displacing an already-warm
            // resident additionally needs a 1.5x heat ratio — the
            // hot-set boundary is full of near-ties, and swapping
            // equals churns migration steps for no expected win.
            if (counts[a] <
                counts[b] + std::max<uint64_t>(2, counts[b] / 2))
                break;
            int from_a = slot_[a];
            slot_[a] = static_cast<int8_t>(target);
            slot_[b] = static_cast<int8_t>(from_a);
            out->push_back({a, from_a, target});
            out->push_back({b, target, from_a});
            ++swaps;
        }
    }
};

} // anonymous namespace

std::unique_ptr<PlacementPolicy>
makePlacementPolicy(const PlacementGeometry &geom,
                    const PlacementConfig &config,
                    HeadPolicy head_policy)
{
    switch (config.kind) {
      case PlacementKind::Static:
        return std::make_unique<StaticPlacement>(geom, config,
                                                 head_policy);
      case PlacementKind::HotCenter:
        return std::make_unique<HotCenterPlacement>(geom, config,
                                                    head_policy);
      case PlacementKind::Adaptive:
        return std::make_unique<AdaptivePlacement>(geom, config,
                                                   head_policy);
    }
    rtm_fatal("unknown placement kind");
    return nullptr;
}

} // namespace rtm
