/**
 * @file
 * Shift-policy selection (paper Sec. 5.2-5.3).
 *
 * Three policies map an access request onto a shift sequence:
 *
 *  - Unconstrained: always one shift of the full distance (the
 *    baseline "RM w/o p-ECC" behaviour and the plain p-ECC scheme).
 *  - WorstCase ("p-ECC-S worst"): a fixed safe distance computed from
 *    the memory's peak access intensity caps every sub-shift.
 *  - Adaptive ("p-ECC-S adaptive"): an interval counter measures the
 *    time since the last shift; the adapter table (Pareto fronts from
 *    the planner) picks the fastest sequence that is safe at the
 *    observed run-time intensity.
 *
 * The OverheadRegion variant (p-ECC-O) is inherently step-by-step;
 * its policy decomposes every request into 1-step shifts.
 *
 * The adapter is the one place a request is split into sub-shifts:
 * the functional controller asks it for a plan, and the racetrack
 * bank asks it for a candidate index that keys its precomputed costs.
 */

#ifndef RTM_CONTROL_ADAPTER_HH
#define RTM_CONTROL_ADAPTER_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "control/planner.hh"
#include "util/enum_tokens.hh"

namespace rtm
{

/** Shift-policy flavours evaluated in the paper. */
enum class ShiftPolicy
{
    Unconstrained,  //!< one shift per request, any distance
    StepByStep,     //!< 1-step shifts only (p-ECC-O)
    WorstCase,      //!< fixed safe distance from peak intensity
    Adaptive        //!< run-time interval-based selection
};

/** The ShiftPolicy token table (spec "policy" field). */
const EnumTokens<ShiftPolicy> &enumTokens(ShiftPolicy);

/**
 * Stateful policy engine (the paper's Fig. 9 adapter): one interval
 * counter and, per request distance, the list of plans the policy
 * chooses from. Candidate lists point into the planner's tables and
 * into the adapter itself, so the adapter is neither copied nor
 * moved.
 */
class ShiftAdapter
{
  public:
    /**
     * @param planner   sequence planner (not owned)
     * @param policy    policy flavour
     * @param peak_ops_per_second peak access intensity used by the
     *        WorstCase policy to fix its safe distance
     * @param interleave_ways requests serviced concurrently by
     *        interleaved sub-banks; the measured interval is divided
     *        by it (paper Sec. 5.3: "increase run-time intensity
     *        accordingly")
     */
    ShiftAdapter(const ShiftPlanner *planner, ShiftPolicy policy,
                 double peak_ops_per_second, int interleave_ways = 1);

    ShiftAdapter(const ShiftAdapter &) = delete;
    ShiftAdapter &operator=(const ShiftAdapter &) = delete;

    /**
     * Plans the policy chooses from for a `distance`-step request, in
     * selection order: the Pareto front for Adaptive (fastest first),
     * the one fixed split for the other policies. Fixed for the
     * adapter's lifetime, so callers may key per-plan tables on the
     * index choose() returns.
     */
    std::span<const SequencePlan> candidates(int distance) const
    {
        if (distance < 1 ||
            static_cast<size_t>(distance) >= candidates_.size())
            badDistance(distance);
        return candidates_[static_cast<size_t>(distance)];
    }

    /**
     * Measure the interval from the previous request to this one at
     * absolute time `now_cycles`, and return the index into
     * candidates(distance) of the plan firstSafePlan picks at it.
     * The first request sees an unbounded interval: a cold memory
     * has been idle "forever".
     */
    size_t choose(int distance, Cycles now_cycles)
    {
        const std::span<const SequencePlan> plans = candidates(distance);
        Cycles interval = std::numeric_limits<Cycles>::max();
        if (requested_) {
            interval = now_cycles > last_request_
                           ? now_cycles - last_request_
                           : 0;
            interval /= interleave_ways_;
        }
        requested_ = true;
        last_interval_ = interval;
        last_request_ = now_cycles;
        return firstSafePlan(plans, interval);
    }

    /**
     * Choose the sequence for a request of `distance` steps issued at
     * absolute time `now_cycles`. Updates the interval counter. The
     * plan lives as long as the adapter and its planner.
     */
    const SequencePlan &plan(int distance, Cycles now_cycles)
    {
        return candidates(distance)[choose(distance, now_cycles)];
    }

    /**
     * Most conservative sequence for `distance` steps: 1-step
     * sub-shifts regardless of policy. The recovery ladder re-seeks
     * with this after a failed episode — when the stripe has just
     * misbehaved, the gentlest drive is the one to finish with. Does
     * not touch the interval counter (recovery traffic must not make
     * the adaptive policy believe intensity rose).
     */
    const SequencePlan &cautiousPlan(int distance) const;

    /** Fixed safe distance of the WorstCase policy. */
    int worstCaseSafeDistance() const { return worst_case_distance_; }

    /** Policy flavour in effect. */
    ShiftPolicy policy() const { return policy_; }

    /** Observed interval before the most recent request. */
    Cycles lastInterval() const { return last_interval_; }

    /** Cycle of the most recent request (0 before the first). */
    Cycles lastRequest() const { return last_request_; }

  private:
    const ShiftPlanner *planner_;
    ShiftPolicy policy_;
    int worst_case_distance_;
    Cycles interleave_ways_;
    Cycles last_request_ = 0;
    Cycles last_interval_ = 0;
    bool requested_ = false;

    /** steps_[d] = the 1-step split of d (cautiousPlan). */
    std::vector<SequencePlan> steps_;
    /** fixed_[d] = the non-adaptive policy's one split of d. */
    std::vector<SequencePlan> fixed_;
    /** candidates_[d] = the list candidates(d) returns. */
    std::vector<std::span<const SequencePlan>> candidates_;

    /** `distance` cut into `part`-step sub-shifts (the last one
     *  shorter), with its summed rate and latency. */
    SequencePlan fixedSplit(int distance, int part) const;

    [[noreturn]] void badDistance(int distance) const;
};

} // namespace rtm

#endif // RTM_CONTROL_ADAPTER_HH
