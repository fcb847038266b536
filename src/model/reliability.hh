/**
 * @file
 * Scheme-level reliability mathematics (paper Sec. 6.2).
 *
 * For each protection scheme, a shift of distance N has three failure
 * channels derived from the cyclic-code residue arithmetic:
 *
 *  - corrected: |k| <= m errors, fixed by counter-shifts (with a
 *    second-order term for the correction shift itself failing);
 *  - DUE (detected unrecoverable): the residue of the error falls on
 *    the ambiguous alias (|k| = m+1 for the T = 2m+2 code), or a
 *    correction retry budget is exhausted;
 *  - SDC (silent data corruption): the residue aliases to zero
 *    (|k| = T, 2T, ...) or to a wrong correctable value
 *    (m+2 <= |k| <= T-m-... miscorrection), so reads silently return
 *    the wrong domain.
 *
 * The unprotected baseline turns *every* position error into SDC.
 * SED (m = 0, T = 2) detects odd step errors (DUE, since direction is
 * unknown) and silently passes even ones (SDC) - matching Sec. 3.2.
 *
 * Expected-event accounting works in log space throughout: rates span
 * 1e-3 .. 1e-30.
 */

#ifndef RTM_MODEL_RELIABILITY_HH
#define RTM_MODEL_RELIABILITY_HH

#include <memory>
#include <vector>

#include "codec/shift_code.hh"
#include "device/error_model.hh"
#include "model/tech.hh"
#include "util/units.hh"

namespace rtm
{

/** Log-domain failure decomposition of one shift operation. */
struct ShiftReliability
{
    double log_sdc;       //!< P(silent corruption)
    double log_due;       //!< P(detected unrecoverable)
    double log_corrected; //!< P(error corrected transparently)

    /** All-zero (log -inf) value. */
    static ShiftReliability none();
};

/**
 * Per-scheme reliability evaluator.
 */
class ReliabilityModel
{
  public:
    /**
     * @param model error model (per-distance step-error rates)
     * @param scheme protection scheme (decides m and decomposition)
     * @param codeword_frames frames pooling one codeword: F > 1
     *        boosts the correction radius by log2(F) (the shared
     *        redundancy region of a large codeword holds that many
     *        more check bits per position); the decomposition
     *        classifies against makeShiftCode's pooled code. 1 is
     *        the paper's per-frame code, bit-identical to the
     *        two-arg form.
     */
    ReliabilityModel(const PositionErrorModel *model, Scheme scheme,
                     int codeword_frames = 1);

    /** Failure decomposition of a single N-step shift operation. */
    ShiftReliability shiftOp(int distance) const;

    /**
     * Failure decomposition of a full access served by a sequence of
     * sub-shifts (log-probabilities combine as unions).
     */
    ShiftReliability sequence(const std::vector<int> &parts) const;

    /** Shift code driving the decomposition (nullptr = unprotected). */
    const ShiftCode *shiftCode() const { return code_.get(); }

  private:
    const PositionErrorModel *model_;
    std::shared_ptr<const ShiftCode> code_; //!< scheme's codec
};

/**
 * Expected-failure accumulator: MTTF from a stream of shift
 * operations (used by the system simulator for Figs. 10-12).
 */
class MttfAccumulator
{
  public:
    /** Record one shift operation's failure decomposition. */
    void add(const ShiftReliability &r, double weight = 1.0);

    /**
     * Record a decomposition whose linear-domain probabilities were
     * exponentiated ahead of time (hot-path memo tables). Passing
     * `exp(log_sdc)` / `exp(log_due)` here accumulates bit-identically
     * to add() with the log-domain values: -inf exponentiates to an
     * exact 0.0, and adding weight * 0.0 leaves the accumulator's
     * value unchanged.
     */
    void addExpected(double sdc_prob, double due_prob, double weight)
    {
        sdc_events_ += weight * sdc_prob;
        due_events_ += weight * due_prob;
    }

    /** Record the simulated-time span covered, in seconds. */
    void addTime(Seconds s) { seconds_ += s; }

    /** Expected SDC events so far. */
    double expectedSdc() const { return sdc_events_; }

    /** Expected DUE events so far. */
    double expectedDue() const { return due_events_; }

    /** Simulated seconds covered. */
    Seconds seconds() const { return seconds_; }

    /** SDC mean time to failure (seconds; +inf if no events). */
    Seconds sdcMttf() const;

    /** DUE mean time to failure (seconds; +inf if no events). */
    Seconds dueMttf() const;

    /** Merge another accumulator (e.g. per-bank shards). */
    void merge(const MttfAccumulator &other);

  private:
    double sdc_events_ = 0.0;
    double due_events_ = 0.0;
    Seconds seconds_ = 0.0;
};

/**
 * Closed-form MTTF for a sustained intensity of identical shifts:
 * Fig. 1's curve and the sensitivity sweeps use this.
 *
 * @param log_fail_per_op log-probability one operation fails
 * @param ops_per_second  failure opportunities per second
 */
Seconds steadyStateMttf(double log_fail_per_op,
                        double ops_per_second);

} // namespace rtm

#endif // RTM_MODEL_RELIABILITY_HH
