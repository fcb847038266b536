#include "shift_code.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace rtm
{

CyclicPositionCode::CyclicPositionCode(int window_bits,
                                       int correct_strength)
    : code_(window_bits), correct_(correct_strength)
{
    if (correct_ < 0)
        rtm_fatal("correction radius must be >= 0, got %d", correct_);
    // A cyclic code of period T distinguishes residues; correcting
    // +/-m needs the 2m + 1 correctable residues plus at least one
    // detect-only residue to be distinct: 2m + 2 <= T.
    if (2 * correct_ + 2 > code_.period())
        rtm_fatal("window w=%d (period %d) too narrow to correct "
                  "+/-%d offsets",
                  code_.window(), code_.period(), correct_);
}

const char *
CyclicPositionCode::name() const
{
    return "limited-magnitude position code";
}

ErrorClass
CyclicPositionCode::classify(int step_error) const
{
    if (step_error == 0)
        return ErrorClass::Ok;
    const int t = code_.period();
    const int m = correct_;
    int diff = (step_error % t + t) % t;
    if (diff == 0)
        return ErrorClass::Silent; // aliases to "no error"
    if (diff <= m || t - diff <= m) {
        int inferred = diff <= m ? diff : -(t - diff);
        return inferred == step_error ? ErrorClass::Corrected
                                      : ErrorClass::Miscorrected;
    }
    return ErrorClass::Ambiguous; // detected, direction unknown
}

DelInsShiftCode::DelInsShiftCode(int k) : k_(k)
{
    if (k_ < 1)
        rtm_fatal("del-ins code needs k >= 1, got %d", k_);
}

const char *
DelInsShiftCode::name() const
{
    return "interleaved-VT deletion/insertion code";
}

ErrorClass
DelInsShiftCode::classify(int step_error) const
{
    if (step_error == 0)
        return ErrorClass::Ok;
    // Each protected readout absorbs a burst of up to k skipped or
    // repeated reads; the trailing-sentinel length check plus the
    // per-class VT syndromes expose anything larger, so there is no
    // silent alias and no miscorrection channel within the device
    // model's error range (see codec/del_ins.hh).
    return std::abs(step_error) <= k_ ? ErrorClass::Corrected
                                      : ErrorClass::Ambiguous;
}

std::shared_ptr<const ShiftCode>
makeShiftCode(const PeccConfig &config)
{
    const PeccConfig code = config.pooledCode();
    switch (code.variant) {
      case PeccVariant::None:
        return nullptr;
      case PeccVariant::Standard:
      case PeccVariant::OverheadRegion:
        return std::make_shared<CyclicPositionCode>(code.window(),
                                                    code.correct);
      case PeccVariant::DelIns:
        return std::make_shared<DelInsShiftCode>(code.correct);
    }
    return nullptr;
}

} // namespace rtm
