/**
 * @file
 * Table 5: design overhead of the position-error protection
 * mechanisms - detection/correction time and energy per stripe,
 * cell-capacity overhead, and controller area.
 *
 * The per-operation circuit numbers come from the paper's 45 nm
 * synthesis (tech.cc); the capacity overhead column is additionally
 * recomputed from this repository's layout geometry for
 * cross-validation.
 */

#include <cstdio>

#include "common.hh"
#include "codec/layout.hh"
#include "mem/protection.hh"
#include "model/tech.hh"

using namespace rtm;

namespace
{

double
layoutOverheadPercent(PeccVariant variant)
{
    PeccConfig c;
    c.num_segments = 8;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = variant;
    return 100.0 * computeLayout(c).storageOverhead();
}

PeccConfig
codewordConfig(int frames)
{
    PeccConfig c;
    c.num_segments = 8;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    c.codeword_frames = frames;
    return c;
}

/** Extra domains of one codeword: its shared region runs the
 *  pooled code (the one the reliability model classifies with). */
int
codewordExtraDomains(int frames)
{
    return computeLayout(codewordConfig(frames).pooledCode())
        .extraDomains();
}

/** Amortised storage overhead per protected frame. */
double
codewordOverhead(int frames)
{
    return static_cast<double>(codewordExtraDomains(frames)) /
           (frames * codewordConfig(frames).dataDomains());
}

/**
 * Amortised check-bit overhead of a protection-domain policy: each
 * region's codeword overhead weighted by its address-space share
 * (per the resolved [begin, end) fractions; the base domain covers
 * the rest).
 */
double
policyOverheadPercent(const ProtectionPolicy &policy)
{
    // 2048 frames is enough resolution for the fraction-based
    // region bounds used here; any multiple of 8 works.
    ResolvedProtection rp = resolveProtection(policy, 2048);
    double covered = 0.0, acc = 0.0;
    for (const ResolvedProtection::Range &r : rp.ranges) {
        const double share =
            static_cast<double>(r.end - r.begin) / 2048.0;
        const ProtectionDomain &d = rp.domains[static_cast<size_t>(
            r.domain)];
        acc += share * codewordOverhead(d.codeword_frames);
        covered += share;
    }
    acc += (1.0 - covered) *
           codewordOverhead(rp.domains[0].codeword_frames);
    return 100.0 * acc;
}

} // namespace

int
main()
{
    banner("Table 5", "design overhead of position-error protection");

    TextTable t({"approach", "detect t (ns)", "detect E (pJ)",
                 "correct t (ns)", "correct E (pJ)", "cell (%)",
                 "controller (um^2)"});
    const Scheme schemes[] = {Scheme::Sts, Scheme::SecdedPecc,
                              Scheme::PeccO, Scheme::PeccSWorst,
                              Scheme::PeccSAdaptive};
    const char *labels[] = {"STS", "p-ECC", "p-ECC-O",
                            "p-ECC-S worst", "p-ECC-S adaptive"};
    for (size_t i = 0; i < 5; ++i) {
        ProtectionOverheads o = overheadsFor(schemes[i]);
        t.addRow({labels[i], TextTable::fixed(o.detect_time * 1e9, 2),
                  TextTable::fixed(o.detect_energy * 1e12, 2),
                  TextTable::fixed(o.correct_time * 1e9, 2),
                  TextTable::fixed(o.correct_energy * 1e12, 2),
                  o.cell_area_overhead > 0
                      ? TextTable::fixed(o.cell_area_overhead * 100,
                                         1)
                      : std::string("N/A"),
                  TextTable::fixed(o.controller_area_um2, 1)});
    }
    t.print(stdout);

    std::printf("\ncell overhead recomputed from layout geometry "
                "(default 8x8, m=1):\n");
    std::printf("  p-ECC   %.1f%% (paper: 17.6%%)\n",
                layoutOverheadPercent(PeccVariant::Standard));
    std::printf("  p-ECC-O %.1f%% (paper: 15.7%%)\n",
                layoutOverheadPercent(PeccVariant::OverheadRegion));

    std::printf("\npooled-codeword geometry (p-ECC 8x8, m=1, F "
                "frames share one region at strength m+log2 F):\n");
    TextTable cw({"frames/codeword", "pooled strength",
                  "extra domains/codeword", "cell (%)",
                  "redundancy reads/write"});
    for (int frames : {1, 2, 4, 8}) {
        PeccLayout lay = computeLayout(codewordConfig(frames));
        cw.addRow({TextTable::integer(frames),
                   TextTable::integer(lay.config.effectiveCorrect()),
                   TextTable::integer(codewordExtraDomains(frames)),
                   TextTable::fixed(100.0 * codewordOverhead(frames), 1),
                   TextTable::integer(
                       lay.redundancyAccessesPerWrite())});
    }
    cw.print(stdout);

    std::printf("\nper-policy amortised cell overhead:\n");
    ProtectionPolicy uniform8;
    uniform8.kind = ProtectionScopeKind::Uniform;
    uniform8.uniform.codeword_frames = 8;
    std::printf("  per-frame (default)      %.1f%%\n",
                policyOverheadPercent(ProtectionPolicy{}));
    std::printf("  uniform pooled F=8       %.1f%%\n",
                policyOverheadPercent(uniform8));
    std::printf("  differentiated (F=8 cold) %.1f%%\n",
                policyOverheadPercent(differentiatedPolicy(8)));
    return 0;
}
