#include "tech.hh"

#include <iterator>

#include "codec/shift_code.hh"
#include "util/logging.hh"

namespace rtm
{

constexpr EnumToken<MemTech> kMemTechRows[] = {
    {MemTech::SRAM, "sram", "SRAM"},
    {MemTech::STTRAM, "sttram", "STT-RAM"},
    {MemTech::Racetrack, "rm", "RM"},
    {MemTech::RacetrackIdeal, "rm-ideal", "RM-Ideal"},
};
constexpr EnumTokens<MemTech> kMemTechTokens("tech", kMemTechRows);

constexpr EnumToken<Scheme> kSchemeRows[] = {
    {Scheme::Baseline, "baseline", "Baseline"},
    {Scheme::Sts, "sts", "STS"},
    {Scheme::SedPecc, "sed", "SED p-ECC"},
    {Scheme::SecdedPecc, "secded", "SECDED p-ECC"},
    {Scheme::PeccO, "pecc-o", "SECDED p-ECC-O"},
    {Scheme::PeccSWorst, "worst", "p-ECC-S worst"},
    {Scheme::PeccSAdaptive, "adaptive", "p-ECC-S adaptive"},
    {Scheme::LmPos, "lm-pos"},
    {Scheme::DelIns, "del-ins-k"},
};
constexpr EnumTokens<Scheme> kSchemeTokens("scheme", kSchemeRows);

namespace
{

/** A row's stripe code: variant, strength and window override. */
constexpr PeccConfig
code(PeccVariant variant, int correct, int window_ports = 0)
{
    PeccConfig c;
    c.variant = variant;
    c.correct = correct;
    c.window_ports = window_ports;
    return c;
}

/** SED and SECDED p-ECC share one Table 5 row. */
constexpr ProtectionOverheads kPeccOverheads = {
    ns(0.34), pJ(3.73), ns(1.34), pJ(6.16), 0.176, 54.0};

/**
 * The scheme table, in kSchemeRows' (and the enum's) order. The
 * code-less rows keep PeccConfig's default m = 1: it is what the
 * stress drill reports for an unprotected stripe.
 */
constexpr SchemeRow kSchemeTable[] = {
    {Scheme::Baseline, code(PeccVariant::None, 1),
     ShiftPolicy::Unconstrained, {}},
    {Scheme::Sts, code(PeccVariant::None, 1),
     ShiftPolicy::Unconstrained,
     {ns(0.82), pJ(1.31), ns(0.82), pJ(1.31), 0.0, 1.94}},
    {Scheme::SedPecc, code(PeccVariant::Standard, 0),
     ShiftPolicy::Unconstrained, kPeccOverheads},
    {Scheme::SecdedPecc, code(PeccVariant::Standard, 1),
     ShiftPolicy::Unconstrained, kPeccOverheads},
    {Scheme::PeccO, code(PeccVariant::OverheadRegion, 1),
     ShiftPolicy::StepByStep,
     {ns(0.34), pJ(3.74), ns(1.34), pJ(9.90), 0.157, 54.0}},
    {Scheme::PeccSWorst, code(PeccVariant::Standard, 1),
     ShiftPolicy::WorstCase,
     {ns(0.38), pJ(3.75), ns(1.35), pJ(6.17), 0.176, 54.3}},
    {Scheme::PeccSAdaptive, code(PeccVariant::Standard, 1),
     ShiftPolicy::Adaptive,
     {ns(0.61), pJ(3.86), ns(1.37), pJ(6.19), 0.176, 109.4}},
    // Not in the paper's Table 5: estimated by scaling the SECDED
    // row for the one extra window port / comparator stage (w = 3
    // vs 2) of the limited-magnitude code.
    {Scheme::LmPos,
     code(PeccVariant::Standard, kLmPosCorrect, kLmPosWindow),
     ShiftPolicy::Unconstrained,
     {ns(0.38), pJ(4.10), ns(1.34), pJ(6.80), 0.185, 61.0}},
    // Estimate: the VT-syndrome decoder is combinational per class,
    // but detection is folded into the streaming readout; storage
    // overhead is the per-track check bits (~log2 L per interleave
    // class) instead of a dedicated code region.
    {Scheme::DelIns, code(PeccVariant::DelIns, kDelInsStrength),
     ShiftPolicy::Unconstrained,
     {ns(0.34), pJ(4.40), ns(1.50), pJ(8.20), 0.130, 88.0}},
};

consteval bool
schemeTableInOrder()
{
    if (std::size(kSchemeTable) != std::size(kSchemeRows))
        return false;
    for (size_t i = 0; i < std::size(kSchemeTable); ++i) {
        if (kSchemeTable[i].scheme != static_cast<Scheme>(i) ||
            kSchemeRows[i].value != static_cast<Scheme>(i))
            return false;
    }
    return true;
}
static_assert(schemeTableInOrder(),
              "one scheme-table row per token row, in enum order");

} // anonymous namespace

const EnumTokens<MemTech> &
enumTokens(MemTech)
{
    return kMemTechTokens;
}

const char *
memTechName(MemTech tech)
{
    return kMemTechTokens.name(tech);
}

const char *
techToken(MemTech tech)
{
    return kMemTechTokens.token(tech);
}

bool
techFromToken(const std::string &token, MemTech *out)
{
    return kMemTechTokens.parse(token, out);
}

TechParams
sramL3()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 4ull << 20;
    p.read_latency = 24;
    p.write_latency = 22;
    p.read_energy = nJ(0.802);
    p.write_energy = nJ(0.761);
    p.leakage_watts = mW(2673.5);
    return p;
}

TechParams
sttramL3()
{
    TechParams p;
    p.tech = MemTech::STTRAM;
    p.capacity_bytes = 32ull << 20;
    p.read_latency = 27;
    p.write_latency = 41;
    p.read_energy = nJ(1.056);
    p.write_energy = nJ(2.093);
    p.leakage_watts = mW(862.2);
    return p;
}

TechParams
racetrackL3()
{
    TechParams p;
    p.tech = MemTech::Racetrack;
    p.capacity_bytes = 128ull << 20;
    p.read_latency = 24;
    p.write_latency = 24;
    p.shift_latency_per_step = 4;
    p.read_energy = nJ(0.956);
    p.write_energy = nJ(0.952);
    p.shift_energy_per_step = nJ(1.331);
    p.leakage_watts = mW(948.4);
    return p;
}

TechParams
racetrackIdealL3()
{
    TechParams p = racetrackL3();
    p.tech = MemTech::RacetrackIdeal;
    p.shift_latency_per_step = 0;
    p.shift_energy_per_step = 0.0;
    return p;
}

TechParams
l3For(MemTech tech)
{
    switch (tech) {
      case MemTech::SRAM: return sramL3();
      case MemTech::STTRAM: return sttramL3();
      case MemTech::Racetrack: return racetrackL3();
      case MemTech::RacetrackIdeal: return racetrackIdealL3();
    }
    rtm_panic("unknown tech");
}

TechParams
l1Params()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 32ull << 10;
    p.read_latency = 1;
    p.write_latency = 1;
    p.read_energy = nJ(0.074);
    p.write_energy = nJ(0.074);
    p.leakage_watts = mW(23.4);
    return p;
}

TechParams
l2Params()
{
    TechParams p;
    p.tech = MemTech::SRAM;
    p.capacity_bytes = 1ull << 20;
    p.read_latency = 7;
    p.write_latency = 7;
    p.read_energy = nJ(0.407);
    p.write_energy = nJ(0.386);
    p.leakage_watts = mW(681.5);
    return p;
}

DramParams
dramParams()
{
    return DramParams{};
}

const EnumTokens<Scheme> &
enumTokens(Scheme)
{
    return kSchemeTokens;
}

const char *
schemeName(Scheme scheme)
{
    return kSchemeTokens.name(scheme);
}

const char *
schemeToken(Scheme scheme)
{
    return kSchemeTokens.token(scheme);
}

bool
schemeFromToken(const std::string &token, Scheme *out)
{
    return kSchemeTokens.parse(token, out);
}

std::span<const SchemeRow>
schemeTable()
{
    return kSchemeTable;
}

const SchemeRow &
schemeRow(Scheme scheme)
{
    const auto i = static_cast<size_t>(scheme);
    if (i >= std::size(kSchemeTable))
        rtm_panic("unknown scheme %zu", i);
    return kSchemeTable[i];
}

int
schemeCorrectionStrength(Scheme scheme)
{
    const SchemeRow &row = schemeRow(scheme);
    return row.hasCode() ? row.pecc.correct : -1;
}

ProtectionOverheads
overheadsFor(Scheme scheme)
{
    // Paper Table 5 (45 nm synthesis).
    return schemeRow(scheme).overheads;
}

} // namespace rtm
