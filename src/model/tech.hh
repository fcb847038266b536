/**
 * @file
 * Memory-technology parameters (paper Table 4) and per-operation
 * protection overheads (paper Table 5).
 *
 * All latencies are in 2 GHz cycles, energies in joules, static power
 * in watts, capacities in bytes. SRAM and STT-RAM numbers come from
 * the paper's NVSim-derived Table 4; racetrack numbers from its
 * circuit-level model. The three LLC options occupy (approximately)
 * the same die area: 4 MB SRAM, 32 MB STT-RAM, 128 MB racetrack.
 */

#ifndef RTM_MODEL_TECH_HH
#define RTM_MODEL_TECH_HH

#include <cstdint>
#include <span>
#include <string>

#include "codec/layout.hh"
#include "control/adapter.hh"
#include "util/enum_tokens.hh"
#include "util/units.hh"

namespace rtm
{

/** Memory technology families evaluated in the paper. */
enum class MemTech
{
    SRAM,
    STTRAM,
    Racetrack,
    RacetrackIdeal //!< shift latency/energy removed (Fig. 16 "ideal")
};

/** Human-readable technology name. */
const char *memTechName(MemTech tech);

/**
 * Stable machine-readable token, the inverse of techFromToken:
 * "sram" | "sttram" | "rm" | "rm-ideal". Used by the CLI flags and
 * the experiment-spec JSON schema.
 */
const char *techToken(MemTech tech);

/** Parse a technology token; false (out untouched) when unknown. */
bool techFromToken(const std::string &token, MemTech *out);

/** The MemTech token table (tokens plus display names). */
const EnumTokens<MemTech> &enumTokens(MemTech);

/** Timing/energy/capacity description of one cache technology. */
struct TechParams
{
    MemTech tech = MemTech::SRAM;
    uint64_t capacity_bytes = 0;
    Cycles read_latency = 0;
    Cycles write_latency = 0;
    Cycles shift_latency_per_step = 0; //!< racetrack only (1-step)
    Joules read_energy = 0.0;
    Joules write_energy = 0.0;
    Joules shift_energy_per_step = 0.0; //!< racetrack only
    double leakage_watts = 0.0;
};

/** Table 4 L3 options. */
TechParams sramL3();
TechParams sttramL3();
TechParams racetrackL3();
TechParams racetrackIdealL3();
TechParams l3For(MemTech tech);

/** Table 4 L1 (per core) parameters. */
TechParams l1Params();

/** Table 4 L2 (per core pair) parameters. */
TechParams l2Params();

/** Table 4 main memory: DDR3-1600 dual channel. */
struct DramParams
{
    Cycles access_latency = 100;
    Joules access_energy = nJ(38.10);
    double bandwidth_bytes_per_s = 12.8e9;
};

DramParams dramParams();

/** Table 5: per-stripe p-ECC operation overheads. */
struct ProtectionOverheads
{
    Seconds detect_time = 0.0;
    Joules detect_energy = 0.0;
    Seconds correct_time = 0.0;
    Joules correct_energy = 0.0;
    double cell_area_overhead = 0.0; //!< fraction of data capacity
    double controller_area_um2 = 0.0;
};

/** Protection schemes of the evaluation (Figs. 10-18). */
enum class Scheme
{
    Baseline,       //!< RM w/o p-ECC (STS only)
    Sts,            //!< STS driver alone (Table 5 first row)
    SedPecc,        //!< SED p-ECC
    SecdedPecc,     //!< SECDED p-ECC (unconstrained distance)
    PeccO,          //!< SECDED p-ECC-O
    PeccSWorst,     //!< p-ECC-S worst-case safe distance
    PeccSAdaptive,  //!< p-ECC-S adaptive
    LmPos,          //!< limited-magnitude position code (Chee et al.)
    DelIns          //!< k-deletion/insertion track code (Sima-Bruck)
};

/** Human-readable scheme name. */
const char *schemeName(Scheme scheme);

/**
 * Stable machine-readable token, the inverse of schemeFromToken:
 * "baseline" | "sts" | "sed" | "secded" | "pecc-o" | "worst" |
 * "adaptive" | "lm-pos" | "del-ins-k". Used by the CLI flags and the
 * experiment-spec JSON schema.
 */
const char *schemeToken(Scheme scheme);

/** Parse a scheme token; false (out untouched) when unknown. */
bool schemeFromToken(const std::string &token, Scheme *out);

/** The Scheme token table (tokens plus display names). */
const EnumTokens<Scheme> &enumTokens(Scheme);

/**
 * Everything a protection scheme is, declared once per scheme in the
 * scheme table (tech.cc): the code its stripes run, how its shifts
 * are planned, and what it costs per operation.
 */
struct SchemeRow
{
    Scheme scheme;

    /**
     * The stripe code's core: variant, strength m (k for del-ins)
     * and window override. The stripe shape and codeword pooling
     * are the caller's (their PeccConfig defaults otherwise).
     */
    PeccConfig pecc;

    /** Shift decomposition the bank plans under. */
    ShiftPolicy policy;

    /** Table 5 costs (estimates for the schemes it lacks). */
    ProtectionOverheads overheads;

    /** Whether the scheme runs a position code at all. */
    constexpr bool hasCode() const
    {
        return pecc.variant != PeccVariant::None;
    }
};

/** The scheme table: one row per Scheme, in enum order. */
std::span<const SchemeRow> schemeTable();

/** The scheme's row of the scheme table. */
const SchemeRow &schemeRow(Scheme scheme);

/**
 * Correction radius the scheme's shift code claims: the largest
 * per-operation position error |e| decoded back to the exact data.
 * -1 for the code-less schemes (Baseline/STS), else the row's m: 0
 * for detect-only SED, 1 for the SECDED p-ECC family, the configured
 * radius of lm-pos and del-ins-k. Shared by the analytic reliability
 * model and the bank's shift planner (which clamps at 0).
 */
int schemeCorrectionStrength(Scheme scheme);

/** Table 5 row for a scheme (Baseline/Sed map to cheapest entries). */
ProtectionOverheads overheadsFor(Scheme scheme);

} // namespace rtm

#endif // RTM_MODEL_TECH_HH
