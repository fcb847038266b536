/**
 * @file
 * Golden equivalence proof for the hot-loop overhaul.
 *
 * The optimized simulator (shift/mask caches, inverse-CDF gap
 * sampler, memoized shift planner) must be *bit-identical* to the
 * seed implementation — not approximately equal. Three layers of
 * evidence:
 *
 *  1. component equivalence: each optimized component against its
 *     frozen reference (sim/reference.hh) under randomized driving;
 *  2. end-to-end equivalence: simulate() against referenceSimulate()
 *     with every SimResult field compared exactly;
 *  3. pinned digests: SHA-256 over a full runMatrix sweep, compared
 *     against constants captured at pin time and across thread
 *     counts. Regenerate with RTM_UPDATE_GOLDEN=1 (the test prints
 *     the new constants and fails so stale pins cannot linger).
 *
 * Section 5 holds the shared front-end tapes to the same standard:
 * a matrix whose cells replay one tape per workload must equal
 * per-cell referenceSimulate() bit for bit, through resume, retry
 * and cancellation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/rm_bank.hh"
#include "model/tech.hh"
#include "sim/experiment.hh"
#include "sim/frontend_tape.hh"
#include "sim/reference.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "trace/workload.hh"
#include "util/hash.hh"
#include "util/journal.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace rtm
{
namespace
{

// --- 1. component equivalence ----------------------------------------

void
fuzzCacheAgainstReference(uint64_t capacity, int ways, int line_bytes,
                          uint64_t seed)
{
    Cache opt(capacity, ways, line_bytes);
    RefCache ref(capacity, ways, line_bytes);
    Rng rng(seed);
    uint64_t lines = capacity / static_cast<uint64_t>(line_bytes);
    // Span several tag aliases of every set, plus out-of-range
    // addresses exercising wide tags.
    uint64_t addr_space = lines * static_cast<uint64_t>(line_bytes) * 8;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.uniformInt(addr_space);
        bool is_write = rng.bernoulli(0.3);
        CacheAccessResult a = opt.access(addr, is_write);
        CacheAccessResult b = ref.access(addr, is_write);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.writeback, b.writeback) << "access " << i;
        ASSERT_EQ(a.victim_addr, b.victim_addr) << "access " << i;
        ASSERT_EQ(a.frame_index, b.frame_index) << "access " << i;
        if (i % 17 == 0) {
            Addr probe = rng.uniformInt(addr_space);
            ASSERT_EQ(opt.contains(probe), ref.contains(probe));
        }
    }
    EXPECT_EQ(opt.stats().reads, ref.stats().reads);
    EXPECT_EQ(opt.stats().writes, ref.stats().writes);
    EXPECT_EQ(opt.stats().read_misses, ref.stats().read_misses);
    EXPECT_EQ(opt.stats().write_misses, ref.stats().write_misses);
    EXPECT_EQ(opt.stats().writebacks, ref.stats().writebacks);
}

TEST(GoldenCache, MatchesReferenceAcrossGeometries)
{
    fuzzCacheAgainstReference(16 * 1024, 4, 64, 1);   // typical
    fuzzCacheAgainstReference(8 * 1024, 1, 64, 2);    // direct-mapped
    fuzzCacheAgainstReference(1024, 16, 64, 3);       // single set
    fuzzCacheAgainstReference(4096, 2, 32, 4);        // small lines
    fuzzCacheAgainstReference(64 * 1024, 16, 64, 5);  // LLC-like
}

TEST(GoldenWorkload, StreamMatchesReferenceForAllProfiles)
{
    for (const WorkloadProfile &p : parsecProfiles()) {
        for (int cores : {1, 3, 4}) {
            WorkloadGenerator opt(p, cores, 42);
            RefWorkloadGenerator ref(p, cores, 42);
            for (int i = 0; i < 20000; ++i) {
                MemRequest a = opt.next();
                MemRequest b = ref.next();
                ASSERT_EQ(a.core, b.core)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.addr, b.addr)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.is_write, b.is_write)
                    << p.name << " cores=" << cores << " req " << i;
                ASSERT_EQ(a.gap_instructions, b.gap_instructions)
                    << p.name << " cores=" << cores << " req " << i;
            }
        }
    }
}

TEST(GoldenWorkload, GapSamplerMatchesLogFormula)
{
    Rng rng(7);
    for (double mean : {2.5, 3.0, 3.5, 4.0, 5.0}) {
        GeometricGapSampler sampler(mean);
        for (int i = 0; i < 200000; ++i) {
            double u = rng.uniform();
            ASSERT_EQ(sampler.sample(u),
                      GeometricGapSampler::reference(mean, u))
                << "mean " << mean << " u " << u;
        }
        // Grid extremes: u = 0 and the largest representable draw.
        EXPECT_EQ(sampler.sample(0.0),
                  GeometricGapSampler::reference(mean, 0.0));
        double u_max = (double)((1ull << 53) - 1) * 0x1.0p-53;
        EXPECT_EQ(sampler.sample(u_max),
                  GeometricGapSampler::reference(mean, u_max));
    }
}

/**
 * Drive a memo bank and a live bank with one access stream (with the
 * pooled-codeword redundancy fetches Hierarchy::access adds) and
 * require bit-equal per-access costs and ledgers. Returns the memo
 * bank's final stats.
 */
RmBankStats
expectMemoMatchesLive(const RmBankConfig &cfg, const std::string &what)
{
    SCOPED_TRACE(what);
    PaperCalibratedErrorModel model;
    TechParams tech = l3For(MemTech::Racetrack);
    RmBankConfig memo_cfg = cfg;
    memo_cfg.use_plan_memo = true;
    RmBankConfig live_cfg = cfg;
    live_cfg.use_plan_memo = false;

    RmBank memo(memo_cfg, &model, tech);
    RmBank live(live_cfg, &model, tech);
    EXPECT_TRUE(memo.planMemoEnabled());
    EXPECT_FALSE(live.planMemoEnabled());

    Rng rng(1234);
    Cycles now = 0;
    for (int i = 0; i < 5000; ++i) {
        uint64_t frame = rng.uniformInt(cfg.line_frames);
        // Occasional long idle gaps trigger head drift.
        Cycles gap = rng.bernoulli(0.05) ? 500 + rng.uniformInt(4000)
                                         : rng.uniformInt(64);
        ShiftCost a = memo.accessFrame(frame, now);
        ShiftCost b = live.accessFrame(frame, now);
        EXPECT_EQ(a.latency, b.latency) << "access " << i;
        EXPECT_EQ(a.stall, b.stall) << "access " << i;
        EXPECT_EQ(a.energy, b.energy) << "access " << i;
        EXPECT_EQ(a.total_steps, b.total_steps) << "access " << i;
        EXPECT_EQ(a.sub_shifts, b.sub_shifts) << "access " << i;
        ShiftCost ra = memo.accessRedundancy(frame, now);
        ShiftCost rb = live.accessRedundancy(frame, now);
        EXPECT_EQ(ra.latency, rb.latency) << "access " << i;
        EXPECT_EQ(ra.energy, rb.energy) << "access " << i;
        if (::testing::Test::HasFailure())
            break;
        now += a.latency + ra.latency + gap;
    }
    const RmBankStats &ms = memo.stats();
    const RmBankStats &ls = live.stats();
    EXPECT_EQ(ms.accesses, ls.accesses);
    EXPECT_EQ(ms.shift_ops, ls.shift_ops);
    EXPECT_EQ(ms.shift_steps, ls.shift_steps);
    EXPECT_EQ(ms.shift_cycles, ls.shift_cycles);
    EXPECT_EQ(ms.shift_energy, ls.shift_energy);
    EXPECT_EQ(ms.migrations, ls.migrations);
    EXPECT_EQ(ms.migration_steps, ls.migration_steps);
    EXPECT_EQ(ms.redundancy_accesses, ls.redundancy_accesses);
    EXPECT_EQ(ms.reliability.expectedSdc(),
              ls.reliability.expectedSdc());
    EXPECT_EQ(ms.reliability.expectedDue(),
              ls.reliability.expectedDue());
    EXPECT_GT(ms.plan_memo_hits, 0u);
    EXPECT_EQ(ls.plan_memo_hits, 0u);
    return ms;
}

TEST(GoldenRmBank, MemoMatchesLivePlanning)
{
    for (const SchemeRow &row : schemeTable()) {
        for (HeadPolicy hp : {HeadPolicy::Stay, HeadPolicy::Center}) {
            RmBankConfig cfg;
            cfg.line_frames = 4096;
            cfg.scheme = row.scheme;
            cfg.head_policy = hp;
            cfg.interleave_ways = 2;
            expectMemoMatchesLive(cfg,
                                  std::string(schemeToken(row.scheme)) +
                                      "/" + headPolicyName(hp));
        }
    }
}

TEST(GoldenRmBank, MemoMatchesLiveWithMigrations)
{
    // Adaptive placement schedules frame moves and the predictive head
    // drifts to each group's hottest slot: both charge single-step
    // shifts through the memo's drift table or the live fold.
    RmBankConfig cfg;
    cfg.line_frames = 1024;
    cfg.scheme = Scheme::PeccSAdaptive;
    cfg.placement.kind = PlacementKind::Adaptive;
    cfg.placement.epoch_accesses = 16;
    cfg.head_policy = HeadPolicy::Predictive;
    const RmBankStats s = expectMemoMatchesLive(cfg, "adaptive placement");
    EXPECT_GT(s.migrations, 0u);
}

TEST(GoldenRmBank, MemoMatchesLiveAcrossProtectionDomains)
{
    // A second protection domain with its own scheme and pooled
    // codewords: the memo folds every domain's model per plan, the
    // live path folds only the accessed frame's.
    RmBankConfig cfg;
    cfg.line_frames = 4096;
    cfg.scheme = Scheme::PeccSAdaptive;
    cfg.head_policy = HeadPolicy::Center;
    cfg.protection.kind = ProtectionScopeKind::AddressRegion;
    ProtectionRegion cold;
    cold.begin = 0.5;
    cold.end = 1.0;
    cold.domain.has_scheme = true;
    cold.domain.scheme = Scheme::SecdedPecc;
    cold.domain.codeword_frames = 4;
    cfg.protection.regions = {cold};
    ASSERT_EQ(resolveProtection(cfg.protection, cfg.line_frames)
                  .domains.size(),
              2u);
    const RmBankStats s = expectMemoMatchesLive(cfg, "regions");
    EXPECT_GT(s.redundancy_accesses, 0u);
}

// --- 2. end-to-end equivalence ---------------------------------------

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.llc_tech, b.llc_tech);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mem_ops, b.mem_ops);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.cache_dynamic_energy, b.cache_dynamic_energy);
    EXPECT_EQ(a.llc_shift_energy, b.llc_shift_energy);
    EXPECT_EQ(a.dram_energy, b.dram_energy);
    EXPECT_EQ(a.leakage_energy, b.leakage_energy);
    EXPECT_EQ(a.llc_accesses, b.llc_accesses);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.dram_accesses, b.dram_accesses);
    EXPECT_EQ(a.shift_ops, b.shift_ops);
    EXPECT_EQ(a.shift_steps, b.shift_steps);
    EXPECT_EQ(a.shift_cycles, b.shift_cycles);
    EXPECT_EQ(a.sdc_mttf, b.sdc_mttf);
    EXPECT_EQ(a.due_mttf, b.due_mttf);
}

TEST(GoldenSim, SimulateMatchesReferenceSimulate)
{
    PaperCalibratedErrorModel model;
    constexpr uint64_t kDivisor = 32;
    struct Option
    {
        MemTech tech;
        Scheme scheme;
    };
    const Option options[] = {
        {MemTech::SRAM, Scheme::Baseline},
        {MemTech::STTRAM, Scheme::Baseline},
        {MemTech::RacetrackIdeal, Scheme::Baseline},
        {MemTech::Racetrack, Scheme::Baseline},
        {MemTech::Racetrack, Scheme::PeccO},
        {MemTech::Racetrack, Scheme::PeccSWorst},
        {MemTech::Racetrack, Scheme::PeccSAdaptive},
    };
    for (const char *workload : {"canneal", "swaptions"}) {
        WorkloadProfile profile =
            scaledProfile(parsecProfile(workload), kDivisor);
        for (const Option &opt : options) {
            SimConfig cfg;
            cfg.hierarchy.llc_tech = opt.tech;
            cfg.hierarchy.scheme = opt.scheme;
            cfg.hierarchy.capacity_divisor = kDivisor;
            cfg.mem_requests = 8000;
            cfg.warmup_requests = 2000;
            SimResult a = simulate(profile, cfg, &model);
            SimResult b = referenceSimulate(profile, cfg, &model);
            expectResultsIdentical(a, b);
        }
    }
}

// --- 3. pinned digests -----------------------------------------------

constexpr uint64_t kGoldenRequests = 6000;
constexpr uint64_t kGoldenWarmup = 1000;
constexpr uint64_t kGoldenDivisor = 32;

/**
 * Pinned SHA-256 digests of the full runMatrix sweep, one per
 * standardLlcOptions() column plus a combined digest. Captured with
 * RTM_UPDATE_GOLDEN=1 on the optimized implementation after proving
 * it bit-identical to the seed reference above.
 */
const char *const kGoldenOptionHashes[] = {
    "6628be33ca3b0930995a871a2509e0e602bf9c9e54f09bb92372ff483d04e9f5", // SRAM
    "60490657571e99f1531cbbe5c32f31913efa5666fbf319016b14ece439a20b9f", // STT-RAM
    "ccb2899f86c9054f07670cf54e4896c8ac7a143e7ca32564496c98ea06611e77", // RM-Ideal
    "d087db6dfaa67564f44f7676c722c24d3262198155942c621082ed8258ef85c0", // RM w/o p-ECC
    "61dd37afb8d101173c04ddda6c6f4aa42185de3d4fe5ef19aecff057e2e0ad0f", // RM p-ECC-O
    "34ee08f170671e73c861d3967fb41e364757618b8904e4435f964d7c0c26198f", // RM p-ECC-S adaptive
    "91dd54607e3785649afb09490a4f9bf3878e728838b93a89adf1be08c4f2992f", // RM p-ECC-S worst
};
const char *const kGoldenCombinedHash =
    "7017ee33c91401fb7af3a9b0c71df686418b5d9a0abb101a02ceee3e6bb413fe";

void
hashResult(Sha256 &h, const SimResult &r)
{
    h.updateString(r.workload);
    h.updateValue(static_cast<int32_t>(r.llc_tech));
    h.updateValue(static_cast<int32_t>(r.scheme));
    h.updateValue(r.instructions);
    h.updateValue(r.mem_ops);
    h.updateValue(r.cycles);
    h.updateValue(r.seconds);
    h.updateValue(r.cache_dynamic_energy);
    h.updateValue(r.llc_shift_energy);
    h.updateValue(r.dram_energy);
    h.updateValue(r.leakage_energy);
    h.updateValue(r.llc_accesses);
    h.updateValue(r.llc_misses);
    h.updateValue(r.dram_accesses);
    h.updateValue(r.shift_ops);
    h.updateValue(r.shift_steps);
    h.updateValue(r.shift_cycles);
    h.updateValue(r.sdc_mttf);
    h.updateValue(r.due_mttf);
}

std::vector<std::string>
matrixHashes(const std::vector<WorkloadMatrixRow> &rows,
             size_t options)
{
    std::vector<std::string> hashes;
    Sha256 combined;
    for (size_t o = 0; o < options; ++o) {
        Sha256 h;
        for (const WorkloadMatrixRow &row : rows) {
            hashResult(h, row.results[o]);
            hashResult(combined, row.results[o]);
        }
        hashes.push_back(h.hexDigest());
    }
    hashes.push_back(combined.hexDigest());
    return hashes;
}

TEST(GoldenSim, MatrixDigestsMatchPins)
{
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();
    auto rows = runMatrix(options, &model, kGoldenRequests,
                          kGoldenWarmup, kGoldenDivisor);
    auto hashes = matrixHashes(rows, options.size());
    ASSERT_EQ(hashes.size(), options.size() + 1);

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenOptionHashes[] = {\n");
        for (size_t o = 0; o < options.size(); ++o)
            printf("    \"%s\", // %s\n", hashes[o].c_str(),
                   options[o].label.c_str());
        printf("};\nconst char *const kGoldenCombinedHash =\n"
               "    \"%s\";\n",
               hashes.back().c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

TEST(GoldenSim, TelemetryOnDoesNotPerturbResults)
{
    // Instrumentation only *reads* simulator state, so a fully
    // instrumented sweep must reproduce the telemetry-off sweep bit
    // for bit: every SimResult field equal and the SHA-256 digests
    // still matching the pinned constants.
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();

    auto plain = runMatrix(options, &model, kGoldenRequests,
                           kGoldenWarmup, kGoldenDivisor);
    Telemetry telemetry(1 << 14);
    auto traced = runMatrix(options, &model, kGoldenRequests,
                            kGoldenWarmup, kGoldenDivisor,
                            &telemetry);

    ASSERT_EQ(plain.size(), traced.size());
    for (size_t w = 0; w < plain.size(); ++w) {
        ASSERT_EQ(plain[w].results.size(),
                  traced[w].results.size());
        for (size_t o = 0; o < plain[w].results.size(); ++o)
            expectResultsIdentical(plain[w].results[o],
                                   traced[w].results[o]);
    }

    auto traced_hashes = matrixHashes(traced, options.size());
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(traced_hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label << " (telemetry on)";
    EXPECT_EQ(traced_hashes.back(), kGoldenCombinedHash);

    // And the sink actually observed the sweep: one sim.requests
    // increment of kGoldenRequests per cell, shift events from the
    // racetrack options, per-cell wall-clock spans.
    const size_t cells = plain.size() * options.size();
    EXPECT_EQ(telemetry.counters().at("sim.requests").value(),
              cells * kGoldenRequests);
    EXPECT_EQ(telemetry.counters().at("runner.cells").value(), cells);
    EXPECT_EQ(telemetry.eventCount(EventKind::Span),
              static_cast<uint64_t>(cells));
    EXPECT_GT(telemetry.eventCount(EventKind::ShiftIssued), 0u);
}

TEST(GoldenSim, RmBankCountersMatchWholeRunLedger)
{
    // The mem.rm_bank.* counters are exported from the bank's final
    // stats. With no warmup the measured-phase SimResult fields are
    // the bank's whole-run ledger, and with pooled codewords every L3
    // access is one bank access plus its redundancy fetches.
    PaperCalibratedErrorModel model;
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.scheme = Scheme::PeccSAdaptive;
    cfg.hierarchy.capacity_divisor = 32;
    cfg.hierarchy.placement.kind = PlacementKind::Adaptive;
    cfg.hierarchy.head_policy = HeadPolicy::Predictive;
    cfg.hierarchy.protection.uniform.codeword_frames = 8;
    cfg.hierarchy.protection.uniform.two_tier = true;
    cfg.mem_requests = 20000;
    cfg.warmup_requests = 0;
    Telemetry telemetry(1 << 10);
    cfg.telemetry = TelemetryScope(&telemetry);
    const SimResult res = simulate(
        scaledProfile(parsecProfile("canneal"), 32), cfg, &model);

    auto counter = [&](const char *name) {
        return telemetry.counters().at(name).value();
    };
    EXPECT_EQ(counter("mem.rm_bank.accesses"),
              counter("mem.l3.accesses") + res.redundancy_accesses);
    EXPECT_EQ(counter("mem.rm_bank.shift_ops"), res.shift_ops);
    EXPECT_EQ(counter("mem.rm_bank.shift_steps"), res.shift_steps);
    EXPECT_EQ(counter("mem.rm_bank.migrations"), res.migrations);
    EXPECT_EQ(counter("mem.rm_bank.migration_steps"),
              res.migration_steps);
    EXPECT_GT(res.redundancy_accesses, 0u);
    EXPECT_GT(res.migrations, 0u);
}

TEST(GoldenSim, SpecDrivenMatrixMatchesPins)
{
    // A declarative ExperimentSpec scheduled on the shared
    // ExperimentEngine must reproduce the pinned digests exactly —
    // at one thread, a fixed small count, and the configured count.
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    normalizeExperimentSpec(&spec);
    auto options = standardLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), options.size());

    PaperCalibratedErrorModel model;
    for (unsigned threads :
         {1u, 4u, ThreadPool::configuredThreads()}) {
        ThreadPool::setGlobalThreads(threads);
        ExperimentResult res = runExperiment(spec, &model);
        EXPECT_EQ(res.cells,
                  parsecProfiles().size() * options.size());
        auto hashes = matrixHashes(res.matrix, options.size());
        for (size_t o = 0; o < options.size(); ++o)
            EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
                << "option " << options[o].label << " at "
                << threads << " thread(s)";
        EXPECT_EQ(hashes.back(), kGoldenCombinedHash)
            << threads << " thread(s)";
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GoldenSim, ExplicitStaticPlacementMatchesPins)
{
    // The placement refactor routed every slot lookup through a
    // policy object. Spelling the default out loud — static
    // placement, stay heads, non-default bookkeeping knobs that
    // static must ignore — has to reproduce the pinned digests
    // bit for bit.
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();
    for (auto &o : options) {
        o.placement = PlacementKind::Static;
        o.head_policy = HeadPolicy::Stay;
        o.placement_epoch = 16;
        o.placement_swap_budget = 1;
    }
    auto rows = runMatrix(options, &model, kGoldenRequests,
                          kGoldenWarmup, kGoldenDivisor);
    auto hashes = matrixHashes(rows, options.size());
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

TEST(GoldenSim, MatrixDigestsStableAcrossThreadCounts)
{
    PaperCalibratedErrorModel model;
    auto options = standardLlcOptions();

    ThreadPool::setGlobalThreads(1);
    auto serial = matrixHashes(
        runMatrix(options, &model, kGoldenRequests, kGoldenWarmup,
                  kGoldenDivisor),
        options.size());
    ThreadPool::setGlobalThreads(3);
    auto parallel = matrixHashes(
        runMatrix(options, &model, kGoldenRequests, kGoldenWarmup,
                  kGoldenDivisor),
        options.size());
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    EXPECT_EQ(serial, parallel);
}

TEST(GoldenSim, Fig16SpecWithoutShiftCodesKeepsThePinnedDigests)
{
    // Guard for the shift-code family introduction: the shipped
    // fig16 spec selects the paper's standard catalogue only, and as
    // long as the new schemes (lm-pos, del-ins-k) are absent from a
    // spec, every pre-existing digest must stay bit-identical. A
    // change here means the new codecs leaked into the legacy
    // simulation path.
    ExperimentSpec spec;
    std::string diag;
    const std::string path = std::string(RTM_REPO_DIR) +
                             "/examples/specs/fig16.json";
    ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag)) << diag;
    const auto standard = standardLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), standard.size());
    for (size_t o = 0; o < standard.size(); ++o)
        EXPECT_TRUE(spec.matrix.options[o] == standard[o])
            << "option " << standard[o].label;

    // The shipped request count is bench-sized; the digest pins are
    // defined at the golden parameters.
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;

    PaperCalibratedErrorModel model;
    ExperimentResult res = runExperiment(spec, &model);
    auto hashes = matrixHashes(res.matrix, standard.size());
    for (size_t o = 0; o < standard.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenOptionHashes[o])
            << "option " << standard[o].label;
    EXPECT_EQ(hashes.back(), kGoldenCombinedHash);
}

/**
 * Pinned digests for the shift-code family itself: a small matrix
 * (two workloads x shiftCodeLlcOptions()) at the golden parameters.
 * Captured with RTM_UPDATE_GOLDEN=1; freezes the end-to-end
 * behaviour of the lm-pos and del-ins-k schemes.
 */
const char *const kGoldenShiftCodeHashes[] = {
    "9d77b9ea01da96a724fef20784128da38a8ddb850261caf6131b3f744e584002", // RM p-ECC-S adaptive
    "28ef5b81ced0f9feabd2e2a9c037865da5d992f74db502781dc9fb56f160d4b6", // RM lm-pos
    "a7383a3e05b32daaab3640e85aec0a71faeae998395317a6c4912019708eca80", // RM del-ins-k
};
const char *const kGoldenShiftCodeCombinedHash =
    "ff793f953a0c068bee08b11090b43abaa978aedd2629356b6124353ceb56c9f7";

TEST(GoldenSim, ShiftCodeMatrixDigestsMatchPins)
{
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    spec.matrix.workloads = {"blackscholes", "canneal"};
    spec.matrix.options = shiftCodeLlcOptions();
    normalizeExperimentSpec(&spec);
    const auto options = shiftCodeLlcOptions();
    ASSERT_EQ(spec.matrix.options.size(), options.size());

    PaperCalibratedErrorModel model;
    ExperimentResult res = runExperiment(spec, &model);
    ASSERT_EQ(res.matrix.size(), spec.matrix.workloads.size());
    auto hashes = matrixHashes(res.matrix, options.size());

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenShiftCodeHashes[] = {\n");
        for (size_t o = 0; o < options.size(); ++o)
            printf("    \"%s\", // %s\n", hashes[o].c_str(),
                   options[o].label.c_str());
        printf("};\nconst char *const "
               "kGoldenShiftCodeCombinedHash =\n    \"%s\";\n",
               hashes.back().c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pins "
                  "into tests/sim_golden_test.cc and re-run";
    }
    for (size_t o = 0; o < options.size(); ++o)
        EXPECT_EQ(hashes[o], kGoldenShiftCodeHashes[o])
            << "option " << options[o].label;
    EXPECT_EQ(hashes.back(), kGoldenShiftCodeCombinedHash);
}

// --- 4. fast-tier pins -----------------------------------------------

/**
 * The fast Monte-Carlo tier is NOT bit-identical to the scalar
 * reference (it reorders draws), so the matrix pins above say
 * nothing about it. It carries its own pinned digest instead: the
 * output is a pure function of (seed, distance, trials), stable
 * across thread counts, and this test freezes it. Regenerate with
 * RTM_UPDATE_GOLDEN=1 after an intentional fast-path change.
 */
const char *const kGoldenFastMcHash =
    "9acd9e237bf8ea72c781f0657d145a86c6e351b78ed97582c240cfc8d58a196e";

std::string
fastMcDigest(unsigned threads)
{
    ThreadPool::setGlobalThreads(threads);
    PositionErrorMonteCarlo mc(DeviceParams{}, 12345,
                               McTier::Fast);
    ErrorPdf pdf = mc.run(7, 100003);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    Sha256 h;
    h.updateValue(static_cast<int32_t>(pdf.distance));
    h.updateValue(pdf.trials);
    for (const auto &kv : pdf.step_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    for (const auto &kv : pdf.middle_counts.entries()) {
        h.updateValue(kv.first);
        h.updateValue(kv.second);
    }
    h.updateValue(pdf.deviation.count());
    h.updateValue(pdf.deviation.mean());
    h.updateValue(pdf.deviation.stddev());
    return h.hexDigest();
}

TEST(GoldenSim, FastTierDigestMatchesPinAcrossThreadCounts)
{
    std::string serial = fastMcDigest(1);
    std::string parallel = fastMcDigest(3);
    EXPECT_EQ(serial, parallel);

    if (std::getenv("RTM_UPDATE_GOLDEN")) {
        printf("const char *const kGoldenFastMcHash =\n"
               "    \"%s\";\n",
               serial.c_str());
        FAIL() << "RTM_UPDATE_GOLDEN set: paste the printed pin "
                  "into tests/sim_golden_test.cc and re-run";
    }
    EXPECT_EQ(serial, kGoldenFastMcHash);
}

// --- 5. shared front-end tapes ---------------------------------------

uint64_t
bitsOf(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Every SimResult field, doubles compared bit for bit. */
void
expectBitIdentical(const SimResult &a, const SimResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.workload, b.workload) << what;
    EXPECT_EQ(a.llc_tech, b.llc_tech) << what;
    EXPECT_EQ(a.scheme, b.scheme) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.mem_ops, b.mem_ops) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(bitsOf(a.seconds), bitsOf(b.seconds)) << what;
    EXPECT_EQ(bitsOf(a.cache_dynamic_energy),
              bitsOf(b.cache_dynamic_energy))
        << what;
    EXPECT_EQ(bitsOf(a.llc_shift_energy), bitsOf(b.llc_shift_energy))
        << what;
    EXPECT_EQ(bitsOf(a.dram_energy), bitsOf(b.dram_energy)) << what;
    EXPECT_EQ(bitsOf(a.leakage_energy), bitsOf(b.leakage_energy))
        << what;
    EXPECT_EQ(a.llc_accesses, b.llc_accesses) << what;
    EXPECT_EQ(a.llc_misses, b.llc_misses) << what;
    EXPECT_EQ(a.dram_accesses, b.dram_accesses) << what;
    EXPECT_EQ(a.shift_ops, b.shift_ops) << what;
    EXPECT_EQ(a.shift_steps, b.shift_steps) << what;
    EXPECT_EQ(a.shift_cycles, b.shift_cycles) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(a.migration_steps, b.migration_steps) << what;
    EXPECT_EQ(a.redundancy_accesses, b.redundancy_accesses) << what;
    EXPECT_EQ(a.redundancy_steps, b.redundancy_steps) << what;
    EXPECT_EQ(bitsOf(a.sdc_mttf), bitsOf(b.sdc_mttf)) << what;
    EXPECT_EQ(bitsOf(a.due_mttf), bitsOf(b.due_mttf)) << what;
}

/** Three workloads x the standard options: 21 cells, 3 tapes. */
ExperimentSpec
tapeSpec()
{
    ExperimentSpec spec;
    spec.matrix.requests = kGoldenRequests;
    spec.matrix.warmup = kGoldenWarmup;
    spec.matrix.divisor = kGoldenDivisor;
    spec.matrix.workloads = {"canneal", "swaptions", "x264"};
    normalizeExperimentSpec(&spec);
    return spec;
}

/** Each cell of `spec` simulated alone on the seed reference. */
std::vector<WorkloadMatrixRow>
referenceMatrix(const ExperimentSpec &spec,
                const PositionErrorModel *model)
{
    const MatrixSpec &m = spec.matrix;
    std::vector<WorkloadMatrixRow> rows;
    for (const std::string &name : m.workloads) {
        WorkloadMatrixRow row;
        row.profile = parsecProfile(name);
        const WorkloadProfile scaled =
            scaledProfile(row.profile, m.divisor);
        for (const LlcOption &opt : m.options)
            row.results.push_back(referenceSimulate(
                scaled,
                matrixCellConfig(opt, m.requests, m.warmup, m.divisor,
                                 m.seed, spec.protection),
                model));
        rows.push_back(std::move(row));
    }
    return rows;
}

void
expectMatrixBitIdentical(const std::vector<WorkloadMatrixRow> &got,
                         const std::vector<WorkloadMatrixRow> &want,
                         const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t w = 0; w < got.size(); ++w) {
        ASSERT_EQ(got[w].results.size(), want[w].results.size());
        for (size_t o = 0; o < got[w].results.size(); ++o)
            expectBitIdentical(got[w].results[o], want[w].results[o],
                               what + " " + want[w].profile.name +
                                   " option " + std::to_string(o));
    }
}

uint64_t
frontEndRequests(const Telemetry &t)
{
    auto it = t.counters().find("sim.frontend.requests");
    return it == t.counters().end() ? 0 : it->second.value();
}

TEST(GoldenTape, SharedTapeMatrixMatchesReferenceSimulate)
{
    const ExperimentSpec spec = tapeSpec();
    PaperCalibratedErrorModel model;
    const auto want = referenceMatrix(spec, &model);
    const uint64_t stream = kGoldenWarmup + kGoldenRequests;
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        Telemetry telemetry(1 << 10);
        ExperimentResult res = runExperiment(spec, &model, &telemetry);
        ASSERT_TRUE(res.complete());
        expectMatrixBitIdentical(res.matrix, want,
                                 std::to_string(threads) + "t");
        // One front end per workload, however many options.
        EXPECT_EQ(frontEndRequests(telemetry),
                  spec.matrix.workloads.size() * stream);
        EXPECT_EQ(telemetry.counters().at("sim.requests").value(),
                  res.cells * kGoldenRequests);
        EXPECT_EQ(tapeCensus().live_tapes, 0u);
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GoldenTape, ResumeFromJournalHoldingPartOfAWorkload)
{
    const ExperimentSpec spec = tapeSpec();
    PaperCalibratedErrorModel model;
    const std::string full_path =
        std::string(::testing::TempDir()) + "tape_full.jsonl";
    const std::string part_path =
        std::string(::testing::TempDir()) + "tape_part.jsonl";
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());

    RunControl stream;
    stream.stream_path = full_path;
    const ExperimentResult full =
        runExperiment(spec, &model, {}, stream);
    ASSERT_TRUE(full.complete());

    // Keep every record but cells 1 and 5 of the first workload and
    // cell 3 of the second: the third workload replays in full.
    JournalFile journal;
    std::string error;
    ASSERT_TRUE(readJournal(full_path, &journal, &error)) << error;
    const size_t options = spec.matrix.options.size();
    const std::vector<size_t> rerun = {1, 5, options + 3};
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.open(part_path, false, &error)) << error;
        writer.appendHeader(journal.header);
        for (const JournalRecord &r : journal.records)
            if (std::find(rerun.begin(), rerun.end(), r.index) ==
                rerun.end())
                writer.appendRecord(r);
        ASSERT_TRUE(writer.close());
    }

    ThreadPool::setGlobalThreads(1);
    resetTapePeaks();
    Telemetry telemetry(1 << 10);
    RunControl resume;
    resume.resume_path = part_path;
    const ExperimentResult res =
        runExperiment(spec, &model, &telemetry, resume);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    ASSERT_TRUE(res.complete());
    EXPECT_EQ(res.ok_cells, rerun.size());
    EXPECT_EQ(res.replayed_cells, res.cells - rerun.size());
    expectMatrixBitIdentical(res.matrix, full.matrix, "resumed");
    // Two workloads had cells to run; the replayed cells let go of
    // their tapes up front, so at one thread the first tape was
    // gone before the second was produced.
    EXPECT_EQ(frontEndRequests(telemetry),
              2 * (kGoldenWarmup + kGoldenRequests));
    EXPECT_EQ(tapeCensus().peak_live_tapes, 1u);
    EXPECT_EQ(tapeCensus().live_tapes, 0u);
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
}

TEST(GoldenTape, RetryRereadsTheSharedTape)
{
    ExperimentSpec spec = tapeSpec();
    spec.resilience.retry_budget = 1;
    spec.resilience.backoff_ms = 1;
    PaperCalibratedErrorModel model;
    const ExperimentResult clean = runExperiment(spec, &model);
    ASSERT_TRUE(clean.complete());

    // The first workload's last option fails its first attempt.
    const size_t failing = spec.matrix.options.size() - 1;
    const uint64_t stream = kGoldenWarmup + kGoldenRequests;
    RunControl control;
    control.fault_hook = [failing](size_t index, int attempt) {
        if (index == failing && attempt == 1)
            throw std::runtime_error("injected first-attempt fault");
    };
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        Telemetry telemetry(1 << 10);
        const ExperimentResult res =
            runExperiment(spec, &model, &telemetry, control);
        ASSERT_TRUE(res.complete());
        EXPECT_EQ(res.outcomes[failing].attempts, 2);
        expectMatrixBitIdentical(res.matrix, clean.matrix,
                                 std::to_string(threads) + "t retry");
        // The retry reads the workload's tape from its first chunk:
        // every front end still runs exactly once.
        EXPECT_EQ(frontEndRequests(telemetry),
                  spec.matrix.workloads.size() * stream)
            << threads << "t";
        EXPECT_EQ(tapeCensus().live_tapes, 0u);
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GoldenTape, OneOptionWorkloadsStreamWithoutATape)
{
    // rm-backend's shape at test scale: one racetrack option with
    // adaptive placement and a predictive head, under a regions
    // policy with an F=8 two-tier region.
    ExperimentSpec spec = tapeSpec();
    LlcOption opt{"RM adaptive predictive", MemTech::Racetrack,
                  Scheme::PeccSAdaptive};
    opt.placement = PlacementKind::Adaptive;
    opt.head_policy = HeadPolicy::Predictive;
    spec.matrix.options = {opt};
    ExperimentSpec regions = spec;
    regions.protection.kind = ProtectionScopeKind::AddressRegion;
    ProtectionRegion cold;
    cold.begin = 0.25;
    cold.end = 1.0;
    cold.domain.codeword_frames = 8;
    cold.domain.two_tier = true;
    regions.protection.regions = {cold};
    // The same option beside a second one replays a shared tape.
    ExperimentSpec taped = regions;
    taped.matrix.options.push_back(
        {"SRAM", MemTech::SRAM, Scheme::Baseline});

    PaperCalibratedErrorModel model;
    const uint64_t stream = kGoldenWarmup + kGoldenRequests;
    // The seed reference has no protection domains: it pins the
    // uniform-policy run, the shared tape pins the regions run.
    const auto want = referenceMatrix(spec, &model);
    const ExperimentResult tape_run = runExperiment(taped, &model);
    ASSERT_TRUE(tape_run.complete());
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        const std::string what = std::to_string(threads) + "t";
        for (const ExperimentSpec *s : {&spec, &regions}) {
            const uint64_t records = tapeCensus().records;
            Telemetry telemetry(1 << 10);
            const ExperimentResult res =
                runExperiment(*s, &model, &telemetry);
            ASSERT_TRUE(res.complete());
            EXPECT_EQ(tapeCensus().records, records) << what;
            EXPECT_EQ(frontEndRequests(telemetry),
                      s->matrix.workloads.size() * stream)
                << what;
            if (s == &spec) {
                expectMatrixBitIdentical(res.matrix, want, what);
                continue;
            }
            for (size_t w = 0; w < res.matrix.size(); ++w)
                expectBitIdentical(res.matrix[w].results[0],
                                   tape_run.matrix[w].results[0],
                                   what + " regions " +
                                       res.matrix[w].profile.name);
            EXPECT_GT(res.matrix[0].results[0].redundancy_accesses,
                      0u);
        }
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(GoldenTape, WideAddressesAndLongGapsReplayExactly)
{
    // A trace with line indices at and above 2^32 and gaps past the
    // record's gap field, streamed, must equal the request-by-request
    // hierarchy loop.
    Rng rng(11);
    std::vector<MemRequest> trace;
    for (int i = 0; i < 30000; ++i) {
        MemRequest r;
        r.core = static_cast<int>(rng.uniformInt(4));
        r.addr = rng.uniformInt(1u << 16) * 64 + rng.uniformInt(64);
        if (i % 7 == 0)
            r.addr += 1ull << 45;
        r.is_write = rng.bernoulli(0.3);
        r.gap_instructions =
            i % 13 == 0 ? 70000 + static_cast<uint32_t>(i)
                        : static_cast<uint32_t>(rng.uniformInt(20));
        trace.push_back(r);
    }
    PaperCalibratedErrorModel model;
    SimConfig cfg;
    cfg.hierarchy.llc_tech = MemTech::Racetrack;
    cfg.hierarchy.capacity_divisor = kGoldenDivisor;
    cfg.warmup_requests = 0;
    cfg.mem_requests = 2 * trace.size() + 123; // wraps the trace
    const SimResult got = simulateTrace("wide", trace, cfg, &model);

    Hierarchy h(cfg.hierarchy, &model);
    std::vector<Cycles> now(4, 0);
    Joules energy = 0.0;
    uint64_t instructions = 0;
    for (uint64_t i = 0; i < cfg.mem_requests; ++i) {
        const MemRequest &r = trace[i % trace.size()];
        auto c = static_cast<size_t>(r.core);
        now[c] += r.gap_instructions;
        instructions += r.gap_instructions + 1;
        HierarchyAccess acc = h.access(r.core, r.addr, r.is_write, now[c]);
        now[c] += acc.latency;
        energy += acc.energy;
    }
    EXPECT_EQ(got.cycles, *std::max_element(now.begin(), now.end()));
    EXPECT_EQ(got.instructions, instructions);
    EXPECT_EQ(bitsOf(got.cache_dynamic_energy), bitsOf(energy));
    EXPECT_EQ(got.llc_accesses, h.l3().stats().accesses());
    EXPECT_EQ(got.shift_steps, h.rmBank()->stats().shift_steps);

    // A generator with such addresses and gaps takes the tape's
    // escape paths; replaying its tape must equal the live stream.
    WorkloadProfile wide = parsecProfile("canneal");
    wide.working_set_bytes = 1ull << 46;
    wide.mean_gap = 300.0;
    cfg.mem_requests = 3 * FrontEndTape::kChunkRequests + 77;
    const uint64_t record_bytes = tapeCensus().record_bytes;
    FrontEndTape tape(wide, cfg.seed, cfg.hierarchy, cfg.mem_requests);
    const SimResult taped =
        simulateOnTape(wide.name, tape, cfg, &model);
    expectBitIdentical(taped, simulate(wide, cfg, &model), "wide tape");
    // Each L3 access is a tape line: two words each in wide chunks,
    // and the escaped gaps on top.
    EXPECT_GT(tapeCensus().record_bytes - record_bytes,
              2 * cfg.mem_requests + 8 * taped.llc_accesses);
}

TEST(GoldenTape, CancelWhileProducingLeavesNoTapeBehind)
{
    ExperimentSpec spec;
    spec.matrix.requests = 400000;
    spec.matrix.warmup = 0;
    spec.matrix.divisor = kGoldenDivisor;
    spec.matrix.workloads = {"canneal"};
    spec.matrix.options = {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"RM adaptive", MemTech::Racetrack, Scheme::PeccSAdaptive},
        {"RM worst", MemTech::Racetrack, Scheme::PeccSWorst},
    };
    normalizeExperimentSpec(&spec);
    PaperCalibratedErrorModel model;
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        // Cancel once the tape has two chunks: its producer is then
        // part-way through a 98-chunk stream.
        const uint64_t start = tapeCensus().records;
        CancelToken cancel;
        std::atomic<bool> finished{false};
        std::thread watcher([&] {
            while (!finished.load()) {
                if (tapeCensus().records >=
                    start + 2 * FrontEndTape::kChunkRequests) {
                    cancel.requestCancel();
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            }
        });
        RunControl control;
        control.cancel = &cancel;
        const ExperimentResult res =
            runExperiment(spec, &model, {}, control);
        finished = true;
        watcher.join();
        EXPECT_TRUE(res.interrupted) << threads << "t";
        EXPECT_FALSE(res.complete());
        EXPECT_GT(res.cancelled_cells, 0u);
        for (const CellOutcome &o : res.outcomes)
            EXPECT_TRUE(o.status == CellStatus::Cancelled ||
                        o.status == CellStatus::Ok);
        EXPECT_EQ(tapeCensus().live_tapes, 0u);
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

} // namespace
} // namespace rtm
