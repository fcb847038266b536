/**
 * @file
 * Data placement / port scheduling bench: shifts per LLC access and
 * wall-clock for every placement policy on the racetrack Fig. 16
 * configuration (p-ECC-S adaptive LLC), plus a head-policy sweep.
 *
 * Policies compared per workload:
 *   static                the seed layout (frame i at its home slot)
 *   hot-center (profiled) two-pass: a static profiling run captures
 *                         per-frame counts that seed the layout of a
 *                         second run (no migration cost)
 *   adaptive              online remapping: bounded hot/cold swaps
 *                         per epoch, migration shifts charged
 *
 * Emits BENCH_placement.json.
 *
 * Flags:
 *   --quick  smaller sizing for CI smoke runs
 *   --check  exit 1 unless profiled hot-center reduces shifts/access
 *            vs static by >= 20% on some workload, and (full sizing
 *            only — online epochs barely fire at quick sizing)
 *            adaptive beats static by the tolerance floor somewhere;
 *            exit 2 if an explicit static run diverges from the
 *            default configuration (placement refactor broke the
 *            baseline)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/system.hh"
#include "trace/frame_profile.hh"

namespace rtm
{
namespace
{

/** Workloads swept (skewed hot sets; placement's target case). */
const char *const kWorkloads[] = {"streamcluster", "canneal",
                                  "bodytrack", "x264"};

/**
 * --check floor for the offline oracle: profiled hot-center must cut
 * shifts/access by at least this much on some workload (observed
 * 57-75% at full sizing).
 */
constexpr double kMinOracleReductionPct = 20.0;

/**
 * --check floor for online adaptive at full sizing. The honest online
 * win is small: LLC traffic spreads nearly uniformly over the 2048
 * stripe groups (~2 accesses/group per 1k requests), the hot set
 * churns ~45% per window, and every swap is paid for in migration
 * shifts — so adaptive needs a long horizon to amortise (observed
 * ~4% at 150k requests). The floor asserts the sign and a margin, not
 * the oracle's magnitude.
 */
constexpr double kMinAdaptiveReductionPct = 2.0;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

struct PolicyRun
{
    std::string policy;
    std::string head;
    SimResult result;
    double wall_seconds = 0.0;
};

struct Sizing
{
    uint64_t requests;
    uint64_t warmup;
    uint64_t divisor;
};

SimConfig
baseConfig(const Sizing &sz)
{
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.scheme = Scheme::PeccSAdaptive;
    cfg.hierarchy.capacity_divisor = sz.divisor;
    cfg.mem_requests = sz.requests;
    cfg.warmup_requests = sz.warmup;
    return cfg;
}

PolicyRun
runPolicy(const char *name, const WorkloadProfile &profile,
          const Sizing &sz, const PlacementConfig &placement,
          HeadPolicy head, const PositionErrorModel *model)
{
    SimConfig cfg = baseConfig(sz);
    cfg.hierarchy.placement = placement;
    cfg.hierarchy.head_policy = head;
    PolicyRun run;
    run.policy = name;
    run.head = headPolicyName(head);
    const double t0 = nowSeconds();
    run.result = simulate(profile, cfg, model);
    run.wall_seconds = nowSeconds() - t0;
    return run;
}

/** Two-pass profiled hot-center: profile statically, replay seeded. */
PolicyRun
runProfiled(const WorkloadProfile &profile, const Sizing &sz,
            const PositionErrorModel *model, FrameProfile *captured)
{
    SimConfig pass1 = baseConfig(sz);
    pass1.hierarchy.placement.track_counts = true;
    pass1.frame_profile_out = &captured->counts;
    simulate(profile, pass1, model);

    PlacementConfig seeded;
    seeded.kind = PlacementKind::HotCenter;
    seeded.profile = captured->counts;
    return runPolicy("hot-center (profiled)", profile, sz, seeded,
                     HeadPolicy::Stay, model);
}

double
reductionPct(const SimResult &base, const SimResult &r)
{
    const double b = base.shiftsPerAccess();
    if (b <= 0.0)
        return 0.0;
    return 100.0 * (1.0 - r.shiftsPerAccess() / b);
}

void
printRun(const PolicyRun &run, const SimResult &base)
{
    std::printf("  %-22s %-11s %8.3f sh/acc  %+6.1f%%  "
                "%7llu migr  %.3fs\n",
                run.policy.c_str(), run.head.c_str(),
                run.result.shiftsPerAccess(),
                -reductionPct(base, run.result),
                static_cast<unsigned long long>(
                    run.result.migrations),
                run.wall_seconds);
}

struct WorkloadReport
{
    std::string name;
    double hot_share = 0.0; //!< top-decile access share (profiled)
    std::vector<PolicyRun> runs; //!< runs[0] is static
};

void
writeJson(const std::vector<WorkloadReport> &reports,
          const std::vector<PolicyRun> &head_sweep,
          const Sizing &sz)
{
    std::FILE *f = std::fopen("BENCH_placement.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_placement.json\n");
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"requests\": %llu,\n",
                 static_cast<unsigned long long>(sz.requests));
    std::fprintf(f, "  \"divisor\": %llu,\n",
                 static_cast<unsigned long long>(sz.divisor));
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t w = 0; w < reports.size(); ++w) {
        const WorkloadReport &rep = reports[w];
        const SimResult &base = rep.runs[0].result;
        std::fprintf(f, "    {\"name\": \"%s\", "
                        "\"hot_decile_share\": %.3f, "
                        "\"policies\": [\n",
                     rep.name.c_str(), rep.hot_share);
        for (size_t i = 0; i < rep.runs.size(); ++i) {
            const PolicyRun &r = rep.runs[i];
            std::fprintf(
                f,
                "      {\"policy\": \"%s\", \"head\": \"%s\", "
                "\"shifts_per_access\": %.4f, "
                "\"reduction_pct\": %.2f, "
                "\"migrations\": %llu, "
                "\"migration_steps\": %llu, "
                "\"cycles\": %llu, "
                "\"wall_seconds\": %.4f}%s\n",
                r.policy.c_str(), r.head.c_str(),
                r.result.shiftsPerAccess(),
                reductionPct(base, r.result),
                static_cast<unsigned long long>(
                    r.result.migrations),
                static_cast<unsigned long long>(
                    r.result.migration_steps),
                static_cast<unsigned long long>(r.result.cycles),
                r.wall_seconds,
                i + 1 < rep.runs.size() ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n",
                     w + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"head_sweep\": [\n");
    for (size_t i = 0; i < head_sweep.size(); ++i) {
        const PolicyRun &r = head_sweep[i];
        std::fprintf(f,
                     "    {\"policy\": \"%s\", \"head\": \"%s\", "
                     "\"shifts_per_access\": %.4f, "
                     "\"cycles\": %llu}%s\n",
                     r.policy.c_str(), r.head.c_str(),
                     r.result.shiftsPerAccess(),
                     static_cast<unsigned long long>(
                         r.result.cycles),
                     i + 1 < head_sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_placement.json\n");
}

} // namespace
} // namespace rtm

int
main(int argc, char **argv)
{
    using namespace rtm;
    bool quick = false, check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }
    banner("sim_placement",
           "shift-minimising data placement and port scheduling");
    reportParallelism();

    // Online remapping amortises its migration cost over many
    // epochs, and a stripe group only completes an epoch every
    // ~30k bank requests at this geometry — so the full sizing runs
    // a much longer trace than the other sim benches.
    Sizing sz;
    sz.requests = quick ? 12000 : 150000;
    sz.warmup = quick ? 2000 : 15000;
    sz.divisor = kBenchDivisor;

    PaperCalibratedErrorModel model;
    std::vector<WorkloadReport> reports;
    double best_adaptive_pct = -1e300;
    double best_oracle_pct = -1e300;

    for (const char *name : kWorkloads) {
        WorkloadProfile profile =
            scaledProfile(parsecProfile(name), sz.divisor);
        WorkloadReport rep;
        rep.name = name;

        // Baseline: the seed layout with the seed head policy. A
        // second run with explicit (non-default) knobs that static
        // placement must ignore doubles as the refactor tripwire.
        rep.runs.push_back(runPolicy("static", profile, sz,
                                     PlacementConfig{},
                                     HeadPolicy::Stay, &model));
        {
            PlacementConfig knobs;
            knobs.epoch_accesses = 16;
            knobs.swap_budget = 1;
            PolicyRun probe = runPolicy("static", profile, sz, knobs,
                                        HeadPolicy::Stay, &model);
            const SimResult &a = rep.runs[0].result;
            const SimResult &b = probe.result;
            if (a.cycles != b.cycles ||
                a.shift_steps != b.shift_steps ||
                b.migrations != 0) {
                std::fprintf(stderr,
                             "FATAL: static placement diverged from "
                             "the default configuration (%s)\n",
                             name);
                return 2;
            }
        }

        FrameProfile captured;
        rep.runs.push_back(
            runProfiled(profile, sz, &model, &captured));
        rep.hot_share = captured.hotShare(0.1);

        PlacementConfig adaptive;
        adaptive.kind = PlacementKind::Adaptive;
        rep.runs.push_back(runPolicy("adaptive", profile, sz,
                                     adaptive, HeadPolicy::Stay,
                                     &model));

        std::printf("%s (top-decile frames take %.0f%% of "
                    "accesses):\n",
                    name, 100.0 * rep.hot_share);
        for (const PolicyRun &run : rep.runs)
            printRun(run, rep.runs[0].result);

        best_oracle_pct =
            std::max(best_oracle_pct,
                     reductionPct(rep.runs[0].result,
                                  rep.runs[1].result));
        best_adaptive_pct = std::max(
            best_adaptive_pct,
            reductionPct(rep.runs[0].result,
                         rep.runs.back().result));
        reports.push_back(std::move(rep));
    }

    // Port-scheduling axis on one skewed workload: how the rest
    // position interacts with the adaptive layout.
    std::vector<PolicyRun> head_sweep;
    {
        WorkloadProfile profile =
            scaledProfile(parsecProfile("streamcluster"),
                          sz.divisor);
        const HeadPolicy heads[] = {
            HeadPolicy::Stay, HeadPolicy::ReturnHome,
            HeadPolicy::Center, HeadPolicy::Predictive};
        std::printf("head-policy sweep (streamcluster, "
                    "adaptive placement):\n");
        for (HeadPolicy head : heads) {
            PlacementConfig adaptive;
            adaptive.kind = PlacementKind::Adaptive;
            PolicyRun run = runPolicy("adaptive", profile, sz,
                                      adaptive, head, &model);
            std::printf("  %-11s %8.3f sh/acc  %llu cycles\n",
                        run.head.c_str(),
                        run.result.shiftsPerAccess(),
                        static_cast<unsigned long long>(
                            run.result.cycles));
            head_sweep.push_back(std::move(run));
        }
    }

    writeJson(reports, head_sweep, sz);
    std::printf("best profiled hot-center reduction vs static: "
                "%.1f%%\n",
                best_oracle_pct);
    std::printf("best adaptive reduction vs static: %.1f%%\n",
                best_adaptive_pct);

    if (check) {
        if (best_oracle_pct < kMinOracleReductionPct) {
            std::fprintf(stderr,
                         "REGRESSION: profiled hot-center reduces "
                         "shifts/access by only %.1f%% (< %.1f%% "
                         "floor) on every workload\n",
                         best_oracle_pct, kMinOracleReductionPct);
            return 1;
        }
        if (!quick && best_adaptive_pct < kMinAdaptiveReductionPct) {
            std::fprintf(stderr,
                         "REGRESSION: adaptive placement reduces "
                         "shifts/access by only %.1f%% (< %.1f%% "
                         "floor) on every workload\n",
                         best_adaptive_pct,
                         kMinAdaptiveReductionPct);
            return 1;
        }
        std::printf("check passed: profiled hot-center >= %.1f%%%s\n",
                    kMinOracleReductionPct,
                    quick ? " (adaptive floor skipped at quick "
                            "sizing)"
                          : ", adaptive >= 2.0%");
    }
    return 0;
}
