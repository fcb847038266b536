/**
 * @file
 * Data-placement policies for the racetrack LLC shift engine.
 *
 * The bank's shift cost on every access is the distance between a
 * group's current head position and the accessed frame's slot offset,
 * so *where* a frame sits inside its stripe group is a first-order
 * performance knob. ShiftsReduce reports 24-50% shift reduction from
 * access-frequency-aware placement and R^4 shows runtime relayout is
 * practical; this module separates that policy axis from the bank
 * mechanics (RmBank):
 *
 *  - `static`     today's layout (frame index -> segment slot by
 *                 arithmetic), bit-identical to the pre-placement
 *                 bank and pinned by the golden digests.
 *  - `hot-center` ShiftsReduce-style: rank frames by an offline
 *                 access-frequency profile (seeded from a first
 *                 pass) and pack the hottest frames into the slots
 *                 nearest the head's rest anchor; the layout is
 *                 fixed at construction. ShiftsReduce is an offline
 *                 method, so there is no online variant: specs
 *                 cannot name it, because profiles are programmatic.
 *  - `adaptive`   online remapping: per-group epoch counters trigger
 *                 bounded hot/cold slot swaps every epoch, with the
 *                 migration shift cost charged to the bank ledger
 *                 (the same charge discipline as the degradation
 *                 remap machinery).
 *
 * The policy also owns the port-position scheduling axis: where a
 * group's heads rest when idle (stay / return-home / center /
 * predictive). The predictive policy rests each group's head under
 * the slot that served the most accesses in the group's last epoch.
 *
 * Policies never move functional bits — like RmBank they model
 * timing/energy/reliability only; a "migration" is a scheduled cost,
 * not a data copy.
 */

#ifndef RTM_MEM_PLACEMENT_HH
#define RTM_MEM_PLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/head_policy.hh"
#include "util/enum_tokens.hh"

namespace rtm
{

/** Placement policy selector. */
enum class PlacementKind
{
    Static,    //!< arithmetic layout (paper Sec. 6.1), the baseline
    HotCenter, //!< profile-ranked, hottest frames nearest the rest
    Adaptive   //!< epoch-based bounded hot/cold swaps at runtime
};

/** Token used in specs/CLI ("static", "hot-center", "adaptive"). */
const char *placementKindName(PlacementKind kind);

/** Parse a placement token; returns false on unknown input. */
bool placementKindFromToken(const std::string &token,
                            PlacementKind *out);

/** The PlacementKind token table. */
const EnumTokens<PlacementKind> &enumTokens(PlacementKind);

/** Placement configuration carried by RmBankConfig. */
struct PlacementConfig
{
    PlacementKind kind = PlacementKind::Static;

    /**
     * Per-group epoch length in accesses: a group reconsiders its
     * layout (and its predictive rest slot) every `epoch_accesses`
     * accesses it serves. Small by design — with the Table 4
     * geometry a group sees only a sliver of the bank's traffic.
     */
    uint64_t epoch_accesses = 64;

    /** Hot/cold slot swaps an adaptive group may make per epoch. */
    int swap_budget = 4;

    /**
     * Offline per-frame access counts (index = frame), required by
     * hot-center, which computes its layout from them at
     * construction (the data is laid out before the cache fills, so
     * no migration cost is charged). Programmatic only — never
     * serialized into specs.
     */
    std::vector<uint64_t> profile;

    /**
     * Force per-frame access counting even for policies that do not
     * need it (profiling pass of the offline hot-center variant).
     */
    bool track_counts = false;
};

/** Geometry a placement policy needs from the bank. */
struct PlacementGeometry
{
    uint64_t line_frames = 0;
    int frames_per_group = 64;
    int seg_len = 8;
};

/**
 * One scheduled frame move: the frame's slot offset changed, and the
 * bank must charge |to - from| single-step shifts on the group that
 * physically holds the frame. An adaptive swap emits two migrations.
 */
struct PlacementMigration
{
    uint64_t frame = 0;
    int from_offset = 0;
    int to_offset = 0;
};

/**
 * Frame -> (group, slot) mapping plus port-position scheduling.
 *
 * The home-group mapping (`groupOf`) is shared by every policy —
 * cross-group placement is left to the bank's remap machinery — but
 * the slot a frame occupies inside its group and the offset its
 * group's heads rest at are policy decisions.
 *
 * Determinism contract: every decision is a pure function of the
 * access sequence observed through recordAccess(), so simulations
 * stay bit-identical at any thread count.
 */
class PlacementPolicy
{
  public:
    PlacementPolicy(const PlacementGeometry &geom,
                    const PlacementConfig &config,
                    HeadPolicy head_policy);
    virtual ~PlacementPolicy() = default;

    /** Policy token (matches placementKindName). */
    virtual const char *name() const = 0;

    /** Head offset that serves `frame` in its group. */
    virtual int slotOffset(uint64_t frame) const = 0;

    /** Home stripe group of a frame. */
    uint64_t groupOf(uint64_t frame) const
    {
        return frame /
               static_cast<uint64_t>(geom_.frames_per_group);
    }

    /** Offset `group`'s heads drift to when idle. */
    int restOffset(uint64_t group) const
    {
        if (head_policy_ == HeadPolicy::Predictive)
            return group_rest_[group];
        return fixed_rest_;
    }

    /**
     * Whether the bank must call recordAccess() on every access
     * (false for the static policy with default head policies — the
     * hot path then skips placement bookkeeping entirely).
     */
    bool tracking() const { return tracking_; }

    /**
     * Observe one served access. Appends any migrations the policy
     * schedules at an epoch boundary to `out` (never cleared here);
     * the caller charges them to the shift ledger.
     */
    void recordAccess(uint64_t frame,
                      std::vector<PlacementMigration> *out);

    /**
     * Per-frame access counts accumulated so far (empty unless the
     * policy tracks). The offline hot-center profile of a second run
     * is seeded from a first run's counts.
     */
    const std::vector<uint64_t> &frameCounts() const
    {
        return frame_count_;
    }

  protected:
    /**
     * Epoch hook: `group` just completed `epoch_accesses` accesses.
     * Dynamic policies reorganise here and emit migrations.
     */
    virtual void onEpoch(uint64_t group,
                         std::vector<PlacementMigration> *out)
    {
        (void)group;
        (void)out;
    }

    /**
     * Whether counts are aged (halved every kAgePeriod epochs of a
     * group). Aging every epoch would cap counts near the epoch
     * length and drown mild within-group skew in sampling noise;
     * a few epochs of accumulation keep the ranking separable while
     * still following phase changes.
     */
    virtual bool agesCounts() const { return false; }

    /** Group epochs between two count halvings (see agesCounts). */
    static constexpr uint64_t kAgePeriod = 8;

    /** The arithmetic (static) slot of a frame. */
    int homeOffset(uint64_t frame) const
    {
        int idx = static_cast<int>(
            frame % static_cast<uint64_t>(geom_.frames_per_group));
        int r = idx % geom_.seg_len;
        return geom_.seg_len - 1 - r;
    }

    /** Frames a group can hold per slot offset. */
    int slotsPerOffset() const
    {
        return geom_.frames_per_group / geom_.seg_len;
    }

    /** [first, last) frame range of a group. */
    void frameRange(uint64_t group, uint64_t *first,
                    uint64_t *last) const;

    /**
     * Offsets ordered nearest-first around the group's rest anchor
     * (ties toward the lower offset). The hottest frames are packed
     * into the earliest offsets of this order.
     */
    std::vector<int> offsetsByProximity(uint64_t group) const;

    /** Recompute the predictive rest slot of a group. */
    void updateRest(uint64_t group);

    PlacementGeometry geom_;
    PlacementConfig config_;
    HeadPolicy head_policy_;
    int fixed_rest_ = 0;
    bool tracking_ = false;

    /** Per-frame access counts (allocated only when tracking). */
    std::vector<uint64_t> frame_count_;
    /** Per-group accesses since the last epoch boundary. */
    std::vector<uint64_t> group_since_epoch_;
    /** Per-group completed-epoch counter (drives count aging). */
    std::vector<uint64_t> group_epochs_;
    /** Per-group predictive rest offset. */
    std::vector<int8_t> group_rest_;
};

/** Build the policy selected by `config.kind`. */
std::unique_ptr<PlacementPolicy>
makePlacementPolicy(const PlacementGeometry &geom,
                    const PlacementConfig &config,
                    HeadPolicy head_policy);

} // namespace rtm

#endif // RTM_MEM_PLACEMENT_HH
