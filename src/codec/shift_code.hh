/**
 * @file
 * Shift-code family: a common interface over position-error codecs.
 *
 * The paper's p-ECC protects shift operations with a cyclic de Bruijn
 * position code; the coding-theory line it spawned generalises the
 * idea in two directions, both modelled here behind one interface:
 *
 *  - limited-magnitude position codes (Chee et al., "Coding for
 *    Racetrack Memories"): decouple the window width w from the
 *    correction radius m, so a w-port window with period T = 2^w
 *    corrects any |e| <= m offset as long as 2m + 2 <= T. The paper's
 *    SED/SECDED codes are the w = m + 1 special case.
 *  - deletion/insertion codes (Sima & Bruck, "Correcting k Deletions
 *    and Insertions in Racetrack Memory"): drop the dedicated code
 *    region entirely and protect the data tracks themselves with
 *    interleaved Varshamov-Tenengolts codes, decoding a whole-track
 *    streaming readout that may have suffered up to k skipped
 *    (deletion) or repeated (insertion) reads (codec/del_ins.hh).
 *
 * A ShiftCode answers the questions the analytic layers ask of a
 * codec without knowing its mechanism: how large an error it corrects
 * and what a given ground-truth step error turns into (the
 * reliability model's SDC/DUE/corrected decomposition). What a code
 * costs in domains and ports is PeccLayout's accounting
 * (codec/layout.hh).
 */

#ifndef RTM_CODEC_SHIFT_CODE_HH
#define RTM_CODEC_SHIFT_CODE_HH

#include <memory>

#include "codec/cyclic.hh"
#include "codec/layout.hh"

namespace rtm
{

/** What a ground-truth step error turns into under a codec. */
enum class ErrorClass
{
    Ok,           //!< no error
    Corrected,    //!< decoder infers the exact error (counter-shift)
    Miscorrected, //!< decoder proposes a wrong correction -> SDC
    Ambiguous,    //!< detected but not correctable -> DUE
    Silent        //!< aliases to "no error" -> SDC
};

/** Default limited-magnitude configuration (scheme token "lm-pos"). */
constexpr int kLmPosWindow = 3;  //!< w ports, period T = 8
constexpr int kLmPosCorrect = 2; //!< m: corrects +/-2-step offsets

/** Default deletion/insertion strength (scheme token "del-ins-k"). */
constexpr int kDelInsStrength = 2; //!< k per protected readout

/** Abstract position-error codec: radius and classification. */
class ShiftCode
{
  public:
    virtual ~ShiftCode() = default;

    /** Short human-readable codec name. */
    virtual const char *name() const = 0;

    /** Largest |e| the codec decodes back to the exact error. */
    virtual int correctionRadius() const = 0;

    /** Classify a ground-truth signed per-operation step error. */
    virtual ErrorClass classify(int step_error) const = 0;
};

/**
 * Cyclic position code with decoupled window and radius: the Chee
 * limited-magnitude construction, of which the paper's SED (w=1, m=0)
 * and SECDED (w=2, m=1) codes are special cases. Owns the de Bruijn
 * machinery (codec/cyclic.hh) used by the functional stripe.
 */
class CyclicPositionCode : public ShiftCode
{
  public:
    /**
     * @param window_bits w: window ports, period T = 2^w
     * @param correct_strength m: radius; needs 2m + 2 <= 2^w
     */
    CyclicPositionCode(int window_bits, int correct_strength);

    const char *name() const override;
    int correctionRadius() const override { return correct_; }
    ErrorClass classify(int step_error) const override;

    /** Underlying de Bruijn sequence / window decoder. */
    const CyclicCode &code() const { return code_; }

  private:
    CyclicCode code_;
    int correct_;
};

/**
 * Classification/accounting face of the interleaved-VT deletion/
 * insertion code (the decode mechanism lives in codec/del_ins.hh).
 * A readout whose net offset is |e| <= k is decoded exactly; larger
 * offsets are exposed by the sentinel/syndrome checks and flagged
 * DUE — the code has no silent or miscorrecting channel within the
 * device model's error range.
 */
class DelInsShiftCode : public ShiftCode
{
  public:
    explicit DelInsShiftCode(int k);

    const char *name() const override;
    int correctionRadius() const override { return k_; }
    ErrorClass classify(int step_error) const override;

  private:
    int k_;
};

/**
 * Codec a stripe configuration runs: config.pooledCode()'s cyclic
 * position code (window(), correct) or del-ins code (k = correct);
 * nullptr for PeccVariant::None. Only the pooled strength and
 * window matter, not the stripe shape.
 */
std::shared_ptr<const ShiftCode> makeShiftCode(const PeccConfig &config);

} // namespace rtm

#endif // RTM_CODEC_SHIFT_CODE_HH
