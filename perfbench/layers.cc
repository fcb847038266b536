/**
 * @file
 * The traced layer ledger: each layer of the simulator timed as one
 * block over a stream captured from the workload, at one worker.
 *
 * Calls into a layer take 50-200 ns, so a clock per call would time
 * the clock. Instead every stream is captured once and each layer's
 * public functions are walked over it in a block:
 *
 *   matrix cell   generator -> captured requests
 *                 Hierarchy over the requests (records each `now`)
 *                 standalone L1/L2 Caches -> captured L3 stream
 *                 standalone L3 Cache -> captured frame stream
 *                 standalone RmBank over the frames, memo and live
 *   campaign cell generator, ShiftController over the requests, the
 *                 bank drill with the live planner and with the memo
 *   stress cell   runStressDrill, plus ReliabilityModel::shiftOp and
 *                 PositionErrorModel::sample over distances 1..Lseg
 *   montecarlo    run() in the spec's tier and in the other, fitModel
 *
 * Every replay must reproduce the untraced run exactly (cache
 * ledgers, bank counters, controller ledger, Monte-Carlo moments);
 * the first mismatch fails the ledger. The hierarchy's self time is
 * its block minus the cache and bank replays of the same stream.
 */

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "harness.hh"

#include "control/controller.hh"
#include "device/error_model.hh"
#include "device/fault_scenario.hh"
#include "device/montecarlo.hh"
#include "mem/hierarchy.hh"
#include "model/reliability.hh"
#include "trace/workload.hh"

using namespace rtm;

namespace
{

using perfbench::wallSeconds;

/** Block totals (seconds) and work counts of every layer. */
struct Ledger
{
    // Matrix cells.
    double gen_s = 0.0;
    uint64_t gen_requests = 0;
    double build_s = 0.0;
    uint64_t builds = 0;
    double hier_s[3] = {0.0, 0.0, 0.0}; //!< by LLC class sram/stt/rm
    uint64_t hier_requests[3] = {0, 0, 0};
    double l1l2_s = 0.0;
    double l3_s = 0.0;
    uint64_t l3_accesses = 0;
    double bank_s = 0.0;
    double bank_live_s = 0.0;
    uint64_t bank_calls = 0;
    uint64_t bank_live_calls = 0;
    uint64_t bank_accesses = 0;
    uint64_t shift_steps = 0;
    uint64_t migrations = 0;
    uint64_t redundancy = 0;
    uint64_t l3_fill_lines = 0;  //!< lines filled during warmup
    uint64_t l3_lines = 0;       //!< capacity in lines

    // Campaign, stress and device cells.
    double control_s = 0.0;
    uint64_t control_accesses = 0;
    uint64_t recovery_rungs = 0;
    double drill_live_s = 0.0;
    double drill_memo_s = 0.0;
    uint64_t drill_accesses = 0;
    double stress_s = 0.0;
    uint64_t stress_ops = 0;
    double shift_op_s = 0.0;
    uint64_t shift_op_calls = 0;
    double sample_s = 0.0;
    uint64_t sample_calls = 0;
    double mc_s[2] = {0.0, 0.0}; //!< exact, fast
    uint64_t mc_trials[2] = {0, 0};
    double fit_s = 0.0;
    uint64_t fits = 0;

    /**
     * Outer wall clock around the work the untraced run also does
     * (capture buffers included; replays and checks excluded): the
     * traced total that the layer blocks are shares of.
     */
    double traced_s = 0.0;
    double mc_primary_s = 0.0; //!< the spec tier's run() + fit
};

/** Replay mismatch collector: keeps the first failure. */
struct Fidelity
{
    std::string error;

    template <typename T>
    void expect(const std::string &what, const T &got, const T &want)
    {
        if (!error.empty() || got == want)
            return;
        std::ostringstream os;
        os << what << ": replay " << got << ", run " << want;
        error = os.str();
    }
};

int
llcClass(MemTech tech)
{
    switch (tech) {
    case MemTech::SRAM: return 0;
    case MemTech::STTRAM: return 1;
    default: return 2;
    }
}

void
expectCacheStats(Fidelity &f, const std::string &what,
                 const CacheStats &got, const CacheStats &want)
{
    f.expect(what + ".reads", got.reads, want.reads);
    f.expect(what + ".writes", got.writes, want.writes);
    f.expect(what + ".read_misses", got.read_misses, want.read_misses);
    f.expect(what + ".write_misses", got.write_misses,
             want.write_misses);
    f.expect(what + ".writebacks", got.writebacks, want.writebacks);
}

void
expectBankStats(Fidelity &f, const std::string &what,
                const RmBankStats &got, const RmBankStats &want)
{
    f.expect(what + ".shift_ops", got.shift_ops, want.shift_ops);
    f.expect(what + ".shift_steps", got.shift_steps, want.shift_steps);
    f.expect(what + ".migrations", got.migrations, want.migrations);
    f.expect(what + ".redundancy_accesses", got.redundancy_accesses,
             want.redundancy_accesses);
}

/** The bank configuration Hierarchy's constructor derives. */
RmBankConfig
bankConfigFor(const HierarchyConfig &h, const TechParams &l3)
{
    RmBankConfig bank;
    bank.line_frames =
        l3.capacity_bytes / static_cast<uint64_t>(h.line_bytes);
    bank.frames_per_group = h.frames_per_group;
    bank.seg_len = h.seg_len;
    bank.scheme = h.scheme;
    const ProtectionDomain &llc = h.protection.llcDomain();
    if (llc.has_scheme)
        bank.scheme = llc.scheme;
    bank.protection = h.protection;
    bank.mttf_target_s = h.mttf_target_s;
    bank.head_policy = h.head_policy;
    bank.placement = h.placement;
    bank.model_contention = h.model_contention;
    bank.use_plan_memo = h.use_plan_memo;
    return bank;
}

/** L3 accesses the live-planner replay covers per cell. */
constexpr size_t kLiveReplayOps = 50000;

/** One L3 access of the captured back-end stream. */
struct L3Op
{
    Addr addr;
    uint32_t request; //!< index of the request that caused it
    bool is_write;
};

void
traceMatrixCell(const WorkloadProfile &base, const LlcOption &opt,
                const ExperimentSpec &spec,
                const PositionErrorModel *model,
                const SimResult &want, Ledger *lg, Fidelity &f)
{
    const MatrixSpec &m = spec.matrix;
    const std::string cell = base.name + "/" + opt.label;
    const WorkloadProfile profile = scaledProfile(base, m.divisor);
    // The configuration appendMatrixJobs gives the cell.
    HierarchyConfig hc;
    hc.llc_tech = opt.tech;
    hc.scheme = opt.scheme;
    hc.head_policy = opt.head_policy;
    hc.placement.kind = opt.placement;
    hc.placement.epoch_accesses = opt.placement_epoch;
    hc.placement.swap_budget = opt.placement_swap_budget;
    hc.capacity_divisor = m.divisor;
    hc.protection = spec.protection;
    const uint64_t n = m.warmup + m.requests;
    if (n > UINT32_MAX) {
        f.error = cell + ": more requests than the replay indexes";
        return;
    }

    // --- trace: the generator alone ------------------------------------
    const double cell0 = wallSeconds();
    std::vector<MemRequest> reqs(n);
    double t0 = wallSeconds();
    {
        WorkloadGenerator gen(profile, hc.cores, m.seed);
        for (uint64_t i = 0; i < n; ++i)
            reqs[i] = gen.next();
    }
    const double gen_s = wallSeconds() - t0;

    // --- mem.hierarchy: build, then the runSim loop ---------------------
    t0 = wallSeconds();
    Hierarchy h(hc, model);
    const double build_s = wallSeconds() - t0;

    std::vector<Cycles> now_at(n);
    std::vector<Cycles> core_time(static_cast<size_t>(hc.cores), 0);
    Joules energy = 0.0;
    t0 = wallSeconds();
    for (uint64_t i = 0; i < m.warmup; ++i) {
        const MemRequest &r = reqs[i];
        auto c = static_cast<size_t>(r.core);
        core_time[c] += r.gap_instructions;
        now_at[i] = core_time[c];
        core_time[c] +=
            h.access(r.core, r.addr, r.is_write, core_time[c]).latency;
    }
    const uint64_t warm_l3_acc = h.l3().stats().accesses();
    const uint64_t warm_l3_miss = h.l3().stats().misses();
    const RmBankStats warm_rm =
        h.rmBank() ? h.rmBank()->stats() : RmBankStats{};
    const std::vector<Cycles> start_time = core_time;
    for (uint64_t i = m.warmup; i < n; ++i) {
        const MemRequest &r = reqs[i];
        auto c = static_cast<size_t>(r.core);
        core_time[c] += r.gap_instructions;
        now_at[i] = core_time[c];
        HierarchyAccess acc =
            h.access(r.core, r.addr, r.is_write, core_time[c]);
        core_time[c] += acc.latency;
        energy += acc.energy;
    }
    const double hier_s = wallSeconds() - t0;
    const double traced_s = wallSeconds() - cell0;

    // The traced hierarchy pass must be the run the engine made.
    Cycles cycles = 0;
    for (size_t c = 0; c < core_time.size(); ++c)
        cycles = std::max(cycles, core_time[c] - start_time[c]);
    f.expect(cell + " cycles", cycles, want.cycles);
    f.expect(cell + " dynamic energy", energy, want.cache_dynamic_energy);
    f.expect(cell + " llc_accesses",
             h.l3().stats().accesses() - warm_l3_acc, want.llc_accesses);
    f.expect(cell + " llc_misses",
             h.l3().stats().misses() - warm_l3_miss, want.llc_misses);
    if (const RmBank *bank = h.rmBank()) {
        const RmBankStats &s = bank->stats();
        f.expect(cell + " shift_ops", s.shift_ops - warm_rm.shift_ops,
                 want.shift_ops);
        f.expect(cell + " shift_steps",
                 s.shift_steps - warm_rm.shift_steps, want.shift_steps);
    }

    // --- mem.cache: L1/L2 alone, then L3 alone ---------------------------
    std::vector<Cache> l1, l2;
    for (int c = 0; c < hc.cores; ++c)
        l1.emplace_back(h.l1(c).capacityBytes(), h.l1(c).ways(),
                        h.l1(c).lineBytes());
    for (int c = 0; c < (hc.cores + 1) / 2; ++c)
        l2.emplace_back(h.l2(c).capacityBytes(), h.l2(c).ways(),
                        h.l2(c).lineBytes());
    std::vector<L3Op> l3ops;
    l3ops.reserve(n);
    uint64_t warm_l3_ops = 0;
    t0 = wallSeconds();
    for (uint64_t i = 0; i < n; ++i) {
        if (i == m.warmup)
            warm_l3_ops = l3ops.size();
        const MemRequest &r = reqs[i];
        CacheAccessResult r1 =
            l1[static_cast<size_t>(r.core)].access(r.addr, r.is_write);
        if (r1.hit)
            continue;
        Cache &c2 = l2[static_cast<size_t>(r.core / 2)];
        if (r1.writeback)
            c2.access(r1.victim_addr, true);
        CacheAccessResult r2 = c2.access(r.addr, r.is_write);
        if (r2.hit)
            continue;
        const auto req = static_cast<uint32_t>(i);
        l3ops.push_back({r.addr, req, r.is_write});
        if (r2.writeback)
            l3ops.push_back({r2.victim_addr, req, true});
    }
    const double l1l2_s = wallSeconds() - t0;
    if (m.warmup >= n)
        warm_l3_ops = l3ops.size();

    Cache l3(h.l3().capacityBytes(), h.l3().ways(), h.l3().lineBytes());
    std::vector<uint64_t> frames(l3ops.size());
    uint64_t warm_fills = 0;
    t0 = wallSeconds();
    for (size_t k = 0; k < l3ops.size(); ++k) {
        if (k == warm_l3_ops)
            warm_fills = l3.stats().misses();
        frames[k] = l3.access(l3ops[k].addr, l3ops[k].is_write)
                        .frame_index;
    }
    const double l3_s = wallSeconds() - t0;
    if (warm_l3_ops >= l3ops.size())
        warm_fills = l3.stats().misses();

    for (int c = 0; c < hc.cores; ++c)
        expectCacheStats(f, cell + " l1[" + std::to_string(c) + "]",
                         l1[static_cast<size_t>(c)].stats(),
                         h.l1(c).stats());
    for (int c = 0; c < (hc.cores + 1) / 2; ++c)
        expectCacheStats(f, cell + " l2[" + std::to_string(c) + "]",
                         l2[static_cast<size_t>(c)].stats(),
                         h.l2(c).stats());
    expectCacheStats(f, cell + " l3", l3.stats(), h.l3().stats());

    // --- mem.rm_bank: the frame stream alone, memo and live -------------
    double bank_s = 0.0, bank_live_s = 0.0;
    uint64_t bank_calls = 0, live_calls = 0;
    if (const RmBank *want_bank = h.rmBank()) {
        TechParams tech = l3For(hc.llc_tech);
        tech.capacity_bytes /= hc.capacity_divisor;
        // Replays the first `ops` L3 accesses; returns the bank and
        // adds the bank calls made to *calls.
        auto replay = [&](bool memo, size_t ops, double *seconds,
                          uint64_t *calls) {
            RmBankConfig bc = bankConfigFor(hc, tech);
            bc.use_plan_memo = memo;
            auto bank = std::make_unique<RmBank>(bc, model, tech);
            const double b0 = wallSeconds();
            for (size_t k = 0; k < ops; ++k) {
                const Cycles now = now_at[l3ops[k].request];
                bank->accessFrame(frames[k], now);
                ++*calls;
                // Hierarchy::access fetches a pooled codeword's
                // redundancy on every write and on reads that are
                // not two-tier (installs are writes).
                const ProtectionDomain &pd = bank->domainFor(frames[k]);
                if (pd.codeword_frames > 1 &&
                    (l3ops[k].is_write || !pd.two_tier)) {
                    bank->accessRedundancy(frames[k], now);
                    ++*calls;
                }
            }
            *seconds = wallSeconds() - b0;
            return bank;
        };
        std::unique_ptr<RmBank> memo =
            replay(true, frames.size(), &bank_s, &bank_calls);
        expectBankStats(f, cell + " bank", memo->stats(),
                        want_bank->stats());
        // The live planner costs 10-20x the memo, so it replays a
        // prefix and is checked against the memo over that prefix.
        const size_t prefix = std::min(frames.size(), kLiveReplayOps);
        double unused = 0.0;
        uint64_t unused_calls = 0;
        std::unique_ptr<RmBank> live =
            replay(false, prefix, &bank_live_s, &live_calls);
        std::unique_ptr<RmBank> memo_prefix =
            replay(true, prefix, &unused, &unused_calls);
        expectBankStats(f, cell + " live bank", live->stats(),
                        memo_prefix->stats());
        const RmBankStats &s = want_bank->stats();
        lg->bank_accesses += s.accesses;
        lg->shift_steps += s.shift_steps;
        lg->migrations += s.migrations;
        lg->redundancy += s.redundancy_accesses;
    }

    const int cls = llcClass(hc.llc_tech);
    lg->gen_s += gen_s;
    lg->gen_requests += n;
    lg->build_s += build_s;
    ++lg->builds;
    lg->hier_s[cls] += hier_s;
    lg->hier_requests[cls] += n;
    lg->l1l2_s += l1l2_s;
    lg->l3_s += l3_s;
    lg->l3_accesses += l3ops.size();
    lg->bank_s += bank_s;
    lg->bank_live_s += bank_live_s;
    lg->bank_calls += bank_calls;
    lg->bank_live_calls += live_calls;
    lg->l3_fill_lines += std::min<uint64_t>(
        warm_fills, h.l3().sets() * static_cast<uint64_t>(h.l3().ways()));
    lg->l3_lines += h.l3().sets() * static_cast<uint64_t>(h.l3().ways());
    lg->traced_s += traced_s;
}

/** campaign.cc's cell seeding (SplitMix64 finaliser). */
uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The bank degradation drill of runFaultDrill: uniform frames, an
 * injected DUE report with probability bank_due_prob.
 */
RmBankStats
bankDrill(const CampaignConfig &cfg, const PositionErrorModel *scaled,
          uint64_t cell_seed, bool memo, double *seconds)
{
    RmBankConfig bc;
    bc.line_frames = cfg.bank_frames;
    bc.scheme = Scheme::PeccSAdaptive;
    bc.group_retry_budget = cfg.group_retry_budget;
    bc.use_plan_memo = memo;
    RmBank bank(bc, scaled, l3For(MemTech::Racetrack));
    Rng rng(mixSeed(cell_seed, 2));
    Cycles now = 0;
    const double t0 = wallSeconds();
    for (uint64_t i = 0; i < cfg.accesses_per_cell; ++i) {
        uint64_t frame = rng.uniformInt(cfg.bank_frames);
        now += bank.accessFrame(frame, now).latency + 4;
        if (rng.bernoulli(cfg.bank_due_prob))
            bank.reportUnrecoverable(frame);
    }
    *seconds = wallSeconds() - t0;
    return bank.stats();
}

void
traceCampaignCell(const ScenarioSpec &scenario_spec,
                  const WorkloadProfile &profile,
                  const CampaignConfig &cfg, uint64_t cell_seed,
                  const CampaignCellResult &want, Ledger *lg,
                  Fidelity &f)
{
    const std::string cell = scenario_spec.name + "/" + profile.name;
    const uint64_t n = cfg.accesses_per_cell;

    // --- trace ----------------------------------------------------------
    const double cell0 = wallSeconds();
    std::vector<MemRequest> reqs(n);
    double t0 = wallSeconds();
    {
        WorkloadGenerator gen(profile, cfg.workload_cores,
                              mixSeed(cell_seed, 1));
        for (uint64_t i = 0; i < n; ++i)
            reqs[i] = gen.next();
    }
    const double gen_s = wallSeconds() - t0;

    // --- control: the controller drill of runFaultDrill -----------------
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    auto scaled = std::make_shared<ScaledErrorModel>(base, cfg.scale);
    t0 = wallSeconds();
    std::unique_ptr<FaultScenario> scenario =
        makeScenario(scenario_spec, scaled);
    Rng cell_rng(cell_seed);
    ShiftController ctl(cfg.pecc, scenario.get(), cfg.policy,
                        cfg.peak_ops_per_second, cell_rng.fork(),
                        kDefaultSafeMttfSeconds, cfg.recovery);
    ctl.initialize();
    const int segs = cfg.pecc.num_segments;
    const int seg_len = cfg.pecc.seg_len;
    Cycles now = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const MemRequest &req = reqs[i];
        uint64_t line = req.addr / 64;
        int seg = static_cast<int>(line % static_cast<uint64_t>(segs));
        int idx = static_cast<int>((line / static_cast<uint64_t>(segs)) %
                                   static_cast<uint64_t>(seg_len));
        AccessResult r =
            req.is_write
                ? ctl.write(seg, idx, (i & 1) ? Bit::One : Bit::Zero, now)
                : ctl.read(seg, idx, now);
        now += r.latency + req.gap_instructions + 1;
        if (r.due || !r.position_ok)
            ctl.initialize();
    }
    const double control_s = wallSeconds() - t0;

    // --- mem.rm_bank: the bank drill, live (as run) and memoised --------
    double live_s = 0.0, memo_s = 0.0;
    RmBankStats live = bankDrill(cfg, scaled.get(), cell_seed, false,
                                 &live_s);
    const double traced_s = wallSeconds() - cell0;

    const ControllerStats &cs = ctl.stats();
    f.expect(cell + " detected", cs.detected_errors,
             want.ledger.detected);
    f.expect(cell + " corrected", cs.corrected_errors,
             want.ledger.corrected);
    f.expect(cell + " recovered_retry", cs.recovered_retry,
             want.ledger.recovered_retry);
    f.expect(cell + " recovered_scrub", cs.recovered_scrub,
             want.ledger.recovered_scrub);
    f.expect(cell + " due", cs.unrecoverable, want.ledger.due);
    f.expect(cell + " sdc", cs.silent_errors, want.ledger.sdc);
    f.expect(cell + " bank due_reports", live.due_reports,
             want.bank_due_reports);
    f.expect(cell + " bank degraded_groups", live.degraded_groups,
             want.bank_degraded_groups);
    f.expect(cell + " bank remapped_accesses", live.remapped_accesses,
             want.bank_remapped_accesses);
    RmBankStats memo = bankDrill(cfg, scaled.get(), cell_seed, true,
                                 &memo_s);
    expectBankStats(f, cell + " memo bank drill", memo, live);

    lg->gen_s += gen_s;
    lg->gen_requests += n;
    lg->control_s += control_s;
    lg->control_accesses += n;
    lg->recovery_rungs += cs.retry_attempts + cs.sts_realigns + cs.scrubs;
    lg->drill_live_s += live_s;
    lg->drill_memo_s += memo_s;
    lg->drill_accesses += n;
    lg->traced_s += traced_s;
}

/** Work counts of the per-call model/device probes. */
constexpr int kShiftOpRounds = 20000;
constexpr int kSampleRounds = 100000;

void
traceStress(const StressSpec &stress, const CampaignConfig *campaign,
            const StressResult &want, Ledger *lg, Fidelity &f)
{
    double t0 = wallSeconds();
    StressResult got = runStressDrill(stress);
    const double stress_s = wallSeconds() - t0;
    f.expect("stress corrected", got.corrected, want.corrected);
    f.expect("stress due", got.due, want.due);
    f.expect("stress silent", got.silent, want.silent);
    f.expect("stress clean", got.clean, want.clean);
    lg->stress_s += stress_s;
    lg->stress_ops += stress.ops;
    lg->traced_s += stress_s;

    // model: the analytic fold the drill evaluates per op.
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel stress_model(base, stress.scale);
    ReliabilityModel analytic(&stress_model, got.scheme);
    double sink = 0.0;
    t0 = wallSeconds();
    for (int k = 0; k < kShiftOpRounds; ++k)
        for (int d = 1; d <= stress.lseg; ++d)
            sink += analytic.shiftOp(d).log_due;
    lg->shift_op_s += wallSeconds() - t0;
    lg->shift_op_calls +=
        static_cast<uint64_t>(kShiftOpRounds) *
        static_cast<uint64_t>(stress.lseg);

    // device: outcome sampling under the campaign's scaled model.
    ScaledErrorModel device_model(base, campaign ? campaign->scale
                                                 : stress.scale);
    Rng rng(stress.seed);
    int64_t errors = 0;
    t0 = wallSeconds();
    for (int k = 0; k < kSampleRounds; ++k)
        for (int d = 1; d <= stress.lseg; ++d)
            errors += device_model.sample(rng, d, true).step_error;
    lg->sample_s += wallSeconds() - t0;
    lg->sample_calls += static_cast<uint64_t>(kSampleRounds) *
                        static_cast<uint64_t>(stress.lseg);
    // Keep both probes observable so neither loop folds away.
    if (!std::isfinite(sink) && errors == INT64_MIN)
        f.error = "probe sink";
}

void
traceMonteCarlo(const McSpec &mc, const McRunResult &want, Ledger *lg,
                Fidelity &f)
{
    McTier tier = McTier::Exact;
    mcTierFromToken(mc.tier, &tier);
    const int slot = tier == McTier::Exact ? 0 : 1;

    double t0 = wallSeconds();
    PositionErrorMonteCarlo engine(DeviceParams{}, mc.seed, tier);
    ErrorPdf pdf = engine.run(mc.distance, mc.trials);
    const double run_s = wallSeconds() - t0;
    f.expect("montecarlo deviation mean", pdf.deviation.mean(),
             want.deviation_mean);
    f.expect("montecarlo P(+1)", pdf.stepProbability(1),
             want.step_prob_plus1);
    lg->mc_s[slot] += run_s;
    lg->mc_trials[slot] += mc.trials;
    lg->mc_primary_s += run_s;
    lg->traced_s += run_s;

    if (mc.fit_trials > 0) {
        t0 = wallSeconds();
        FittedModelParams fit = engine.fitModel(mc.fit_trials).params();
        const double fit_s = wallSeconds() - t0;
        f.expect("montecarlo fit sigma", fit.sigma_step,
                 want.fit.sigma_step);
        f.expect("montecarlo fit rho", fit.resync_rho,
                 want.fit.resync_rho);
        lg->fit_s += fit_s;
        ++lg->fits;
        lg->mc_primary_s += fit_s;
        lg->traced_s += fit_s;
    }

    // The other tier over the same trial count.
    const McTier other = slot == 0 ? McTier::Fast : McTier::Exact;
    t0 = wallSeconds();
    PositionErrorMonteCarlo other_engine(DeviceParams{}, mc.seed, other);
    other_engine.run(mc.distance, mc.trials);
    lg->mc_s[1 - slot] += wallSeconds() - t0;
    lg->mc_trials[1 - slot] += mc.trials;
}

double
perUnit(double seconds, uint64_t units, double scale)
{
    return units ? seconds * scale / static_cast<double>(units) : 0.0;
}

} // anonymous namespace

namespace perfbench
{

bool
runLayerLedger(const ExperimentSpec &spec,
               const ExperimentResult &untraced, JsonValue *out,
               std::string *error)
{
    Ledger lg;
    Fidelity f;
    PaperCalibratedErrorModel model;

    if (spec.matrix.enabled) {
        for (size_t w = 0; w < spec.matrix.workloads.size(); ++w) {
            const WorkloadProfile profile =
                parsecProfile(spec.matrix.workloads[w]);
            for (size_t o = 0; o < spec.matrix.options.size(); ++o)
                traceMatrixCell(profile, spec.matrix.options[o], spec,
                                &model, untraced.matrix[w].results[o],
                                &lg, f);
        }
    }
    if (spec.campaign.enabled) {
        const CampaignSpec &c = spec.campaign;
        const size_t nw = c.workloads.size();
        for (size_t i = 0; i < c.scenarios.size() * nw; ++i)
            traceCampaignCell(c.scenarios[i / nw],
                              parsecProfile(c.workloads[i % nw]),
                              c.config, mixSeed(c.config.seed, i),
                              untraced.campaign.cells[i], &lg, f);
    }
    if (spec.stress.enabled)
        traceStress(spec.stress,
                    spec.campaign.enabled ? &spec.campaign.config
                                          : nullptr,
                    untraced.stress, &lg, f);
    if (spec.montecarlo.enabled)
        traceMonteCarlo(spec.montecarlo, untraced.mc, &lg, f);

    if (!f.error.empty()) {
        *error = f.error;
        return false;
    }

    const double hier_total = lg.hier_s[0] + lg.hier_s[1] + lg.hier_s[2];
    const uint64_t hier_reqs =
        lg.hier_requests[0] + lg.hier_requests[1] + lg.hier_requests[2];
    const double cache_s = lg.l1l2_s + lg.l3_s;
    const double hier_self_s = hier_total - cache_s - lg.bank_s;

    JsonValue v = JsonValue::object();
    v.set("trace.gen_ns_per_req", perUnit(lg.gen_s, lg.gen_requests, 1e9));
    v.set("mem.cache.l1l2_ns_per_req",
          perUnit(lg.l1l2_s, hier_reqs, 1e9));
    v.set("mem.cache.l3_ns_per_access",
          perUnit(lg.l3_s, lg.l3_accesses, 1e9));
    v.set("mem.cache.l3_reach",
          hier_reqs ? static_cast<double>(lg.l3_accesses) /
                          static_cast<double>(hier_reqs)
                    : 0.0);
    v.set("mem.cache.l3_warm_fill",
          lg.l3_lines ? static_cast<double>(lg.l3_fill_lines) /
                            static_cast<double>(lg.l3_lines)
                      : 0.0);
    const char *cls[3] = {"sram", "stt", "rm"};
    for (int c = 0; c < 3; ++c)
        v.set(std::string("mem.hierarchy.ns_per_req.") + cls[c],
              perUnit(lg.hier_s[c], lg.hier_requests[c], 1e9));
    v.set("mem.hierarchy.self_ns_per_req",
          perUnit(hier_self_s, hier_reqs, 1e9));
    v.set("mem.hierarchy.build_ms", perUnit(lg.build_s, lg.builds, 1e3));
    // The bank layer on the matrix replay, or on the campaign's bank
    // drill when the workload has no racetrack matrix cells.
    const bool matrix_bank = lg.bank_calls > 0;
    v.set("mem.rm_bank.ns_per_access",
          matrix_bank ? perUnit(lg.bank_s, lg.bank_calls, 1e9)
                      : perUnit(lg.drill_memo_s, lg.drill_accesses, 1e9));
    v.set("mem.rm_bank.live_ns_per_access",
          matrix_bank
              ? perUnit(lg.bank_live_s, lg.bank_live_calls, 1e9)
              : perUnit(lg.drill_live_s, lg.drill_accesses, 1e9));
    v.set("mem.rm_bank.shift_steps_per_access",
          lg.bank_accesses ? static_cast<double>(lg.shift_steps) /
                                 static_cast<double>(lg.bank_accesses)
                           : 0.0);
    v.set("mem.rm_bank.migrations_per_kaccess",
          lg.bank_accesses ? 1e3 * static_cast<double>(lg.migrations) /
                                 static_cast<double>(lg.bank_accesses)
                           : 0.0);
    v.set("mem.rm_bank.redundancy_per_access",
          lg.bank_accesses ? static_cast<double>(lg.redundancy) /
                                 static_cast<double>(lg.bank_accesses)
                           : 0.0);
    v.set("control.ns_per_access",
          perUnit(lg.control_s, lg.control_accesses, 1e9));
    v.set("control.recovery_per_kaccess",
          lg.control_accesses
              ? 1e3 * static_cast<double>(lg.recovery_rungs) /
                    static_cast<double>(lg.control_accesses)
              : 0.0);
    v.set("codec.stress_ns_per_op",
          perUnit(lg.stress_s, lg.stress_ops, 1e9));
    v.set("model.shift_op_ns", perUnit(lg.shift_op_s, lg.shift_op_calls, 1e9));
    v.set("device.error_sample_ns",
          perUnit(lg.sample_s, lg.sample_calls, 1e9));
    v.set("device.mc_exact_ns_per_trial",
          perUnit(lg.mc_s[0], lg.mc_trials[0], 1e9));
    v.set("device.mc_fast_ns_per_trial",
          perUnit(lg.mc_s[1], lg.mc_trials[1], 1e9));
    v.set("device.fit_ms", perUnit(lg.fit_s, lg.fits, 1e3));

    // Block seconds per layer, for shares of the traced total. The
    // hierarchy's share is its self time plus its construction.
    JsonValue blocks = JsonValue::object();
    blocks.set("trace", lg.gen_s);
    blocks.set("mem.cache.l1l2", lg.l1l2_s);
    blocks.set("mem.cache.l3", lg.l3_s);
    blocks.set("mem.hierarchy", hier_self_s + lg.build_s);
    blocks.set("mem.rm_bank", lg.bank_s + lg.drill_live_s);
    blocks.set("control", lg.control_s);
    blocks.set("codec", lg.stress_s);
    blocks.set("device", lg.mc_primary_s);
    v.set("blocks_s", std::move(blocks));
    v.set("traced_s", lg.traced_s);
    *out = std::move(v);
    return true;
}

} // namespace perfbench
