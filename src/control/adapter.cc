#include "adapter.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

constexpr EnumToken<ShiftPolicy> kShiftPolicyRows[] = {
    {ShiftPolicy::Unconstrained, "unconstrained"},
    {ShiftPolicy::StepByStep, "step"},
    {ShiftPolicy::WorstCase, "worst"},
    {ShiftPolicy::Adaptive, "adaptive"},
};
constexpr EnumTokens<ShiftPolicy> kShiftPolicyTokens("shift policy",
                                                     kShiftPolicyRows);

const EnumTokens<ShiftPolicy> &
enumTokens(ShiftPolicy)
{
    return kShiftPolicyTokens;
}

ShiftAdapter::ShiftAdapter(const ShiftPlanner *planner,
                           ShiftPolicy policy,
                           double peak_ops_per_second,
                           int interleave_ways)
    : planner_(planner), policy_(policy)
{
    if (!planner_)
        rtm_fatal("adapter needs a planner");
    if (interleave_ways < 1)
        rtm_fatal("adapter needs interleave_ways >= 1, got %d",
                  interleave_ways);
    interleave_ways_ = static_cast<Cycles>(interleave_ways);
    worst_case_distance_ =
        planner_->safeDistance(peak_ops_per_second);

    const size_t n = static_cast<size_t>(planner_->maxPart()) + 1;
    steps_.resize(n);
    fixed_.resize(n);
    candidates_.resize(n);
    for (int d = 1; d <= planner_->maxPart(); ++d) {
        const size_t i = static_cast<size_t>(d);
        steps_[i] = fixedSplit(d, 1);
        switch (policy_) {
          case ShiftPolicy::Unconstrained:
            // Every shift operation pays the fixed stage-2 cost, so
            // the one-shot plan {d} is the front's fastest element.
            fixed_[i] = planner_->paretoFront(d).front();
            break;
          case ShiftPolicy::StepByStep:
            fixed_[i] = steps_[i];
            break;
          case ShiftPolicy::WorstCase:
            fixed_[i] = fixedSplit(d, worst_case_distance_);
            break;
          case ShiftPolicy::Adaptive:
            candidates_[i] = planner_->paretoFront(d);
            continue;
        }
        candidates_[i] = {&fixed_[i], 1};
    }
}

SequencePlan
ShiftAdapter::fixedSplit(int distance, int part) const
{
    SequencePlan plan;
    plan.log_fail_rate = -std::numeric_limits<double>::infinity();
    for (int remaining = distance; remaining > 0;) {
        const int p = std::min(remaining, part);
        plan.parts.push_back(p);
        plan.log_fail_rate =
            logSumExp(plan.log_fail_rate, planner_->logFailRate(p));
        // The front of a p-step request always holds the one-shot
        // plan {p} as its fastest element.
        plan.latency += planner_->paretoFront(p).front().latency;
        remaining -= p;
    }
    return plan;
}

const SequencePlan &
ShiftAdapter::cautiousPlan(int distance) const
{
    if (distance < 1 || static_cast<size_t>(distance) >= steps_.size())
        badDistance(distance);
    return steps_[static_cast<size_t>(distance)];
}

void
ShiftAdapter::badDistance(int distance) const
{
    rtm_panic("adapter request of %d steps outside [1, %d]", distance,
              planner_->maxPart());
}

} // namespace rtm
