/**
 * @file
 * Three-level cache hierarchy (paper Table 4).
 *
 * Per-core split-L1 (the simulator drives the data side), one L2 per
 * core pair, and a shared L3 whose technology is configurable: SRAM
 * (4 MB), STT-RAM (32 MB), or racetrack (128 MB) with a protection
 * scheme. Misses at L3 go to DDR3 main memory. Timing is additive
 * along the miss path (the paper's in-order cores block on memory),
 * and every level accumulates dynamic energy; leakage integrates over
 * simulated time in the system simulator.
 */

#ifndef RTM_MEM_HIERARCHY_HH
#define RTM_MEM_HIERARCHY_HH

#include <memory>
#include <optional>
#include <vector>

#include "device/error_model.hh"
#include "mem/cache.hh"
#include "mem/rm_bank.hh"
#include "model/tech.hh"
#include "util/units.hh"

namespace rtm
{

/** Outcome of one hierarchy access. */
struct HierarchyAccess
{
    Cycles latency = 0;     //!< total cycles to service
    Joules energy = 0.0;    //!< dynamic energy across all levels
    bool l1_hit = false;
    bool l2_hit = false;
    bool l3_hit = false;
    bool dram_access = false;
    Cycles shift_cycles = 0; //!< racetrack shift share of latency
};

/** Hierarchy-wide configuration. */
struct HierarchyConfig
{
    int cores = 4;
    MemTech llc_tech = MemTech::Racetrack;
    Scheme scheme = Scheme::PeccSAdaptive;
    int llc_ways = 16;
    int l1_ways = 2;
    int l2_ways = 4;
    int line_bytes = 64;
    int seg_len = 8;          //!< racetrack segment length
    int frames_per_group = 64;
    double mttf_target_s = kDefaultSafeMttfSeconds;
    HeadPolicy head_policy = HeadPolicy::Stay;
    bool model_contention = false;

    /** Racetrack data-placement policy (mem/placement.hh). */
    PlacementConfig placement;

    /**
     * Protection-domain policy (mem/protection.hh). A scheme
     * override in the uniform/llc domain replaces `scheme` for the
     * racetrack bank; pooled-codeword domains add redundancy-frame
     * accesses on writes (and on reads unless two-tier). The
     * default policy changes nothing.
     */
    ProtectionPolicy protection;

    /** Passed through to RmBankConfig::use_plan_memo. */
    bool use_plan_memo = true;

    /**
     * Uniform capacity divisor applied to every cache level. The
     * Table 4 hierarchy needs millions of requests before a
     * capacity-sensitive working set develops reuse in a 128 MB LLC;
     * dividing all capacities (and the workload's working set) by
     * the same factor preserves the 4/32/128 MB ratios and the
     * capacity-sensitivity divide while keeping runs tractable.
     * 1 = full-size Table 4 capacities.
     */
    uint64_t capacity_divisor = 1;

    /**
     * Observability sink, forwarded to the racetrack bank and used
     * by exportTelemetry for per-level cache counters. Disabled
     * (null) by default; results are bit-identical either way.
     */
    TelemetryScope telemetry = {};
};

/**
 * What the private levels (per-core L1, per-pair L2) did with one
 * request: everything the shared levels need to account it. The L1
 * victim that writes through to L2 stays inside the front end; the
 * dirty L2 victim installs into L3.
 */
struct FrontEndAccess
{
    bool l1_hit = false;
    bool l1_writeback = false; //!< a dirty L1 victim wrote into L2
    bool l2_hit = false;
    bool l2_writeback = false; //!< a dirty L2 victim goes to L3
    Addr l2_victim = 0;        //!< its line address
};

/**
 * The private levels: per-core L1s and per-pair L2s. Their state
 * never depends on the LLC (the hierarchy is non-inclusive with no
 * back-invalidation), so one front end's outcome stream serves every
 * LLC option of a workload.
 */
class FrontEnd
{
  public:
    explicit FrontEnd(const HierarchyConfig &config);

    /** Fatal unless `config` gives a buildable front end. */
    static void validate(const HierarchyConfig &config);

    /** Look `addr` up in `core`'s L1 and, on a miss, its L2. */
    FrontEndAccess access(int core, Addr addr, bool is_write);

    /** L1 data cache of a core (stats inspection). */
    const Cache &l1(int core) const;

    /** L2 of a core pair. */
    const Cache &l2(int cluster) const;

    /** Stats summed over every L1 / every L2. */
    CacheStats l1Totals() const;
    CacheStats l2Totals() const;

  private:
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
};

/**
 * The shared levels: L3 tags, the racetrack bank and DRAM. It
 * accounts a whole request from its front-end outcome — latency and
 * dynamic energy of every level, summed in the order the levels are
 * reached — so a replayed outcome stream gives the same bits as the
 * live hierarchy.
 */
class BackEnd
{
  public:
    /**
     * @param config system configuration
     * @param model  position-error model (racetrack LLC only; may be
     *               null for SRAM/STT-RAM configurations)
     */
    BackEnd(const HierarchyConfig &config,
            const PositionErrorModel *model);

    /**
     * Account one request at absolute time `now` whose private
     * levels did `fe`.
     */
    HierarchyAccess access(const FrontEndAccess &fe, Addr addr,
                           bool is_write, Cycles now);

    const Cache &l3() const { return *l3_; }
    RmBank *rmBank() { return rm_bank_.get(); }
    const RmBank *rmBank() const { return rm_bank_.get(); }
    uint64_t dramAccesses() const { return dram_accesses_; }
    Joules dramEnergy() const { return dram_energy_; }

    /** Static power of all cache levels combined, watts. */
    double totalLeakageWatts() const;

    /** L3, DRAM and racetrack-bank counters (see Hierarchy). */
    void exportTelemetry(Telemetry &sink) const;

  private:
    HierarchyConfig config_;
    TechParams l1_params_;
    TechParams l2_params_;
    TechParams l3_params_;
    DramParams dram_;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<RmBank> rm_bank_;
    uint64_t dram_accesses_ = 0;
    Joules dram_energy_ = 0.0;
};

/**
 * Export the private levels' cumulative counters (mem.l1.*: every
 * L1 summed, mem.l2.*: every L2 summed).
 */
void exportFrontEndTelemetry(Telemetry &sink, const CacheStats &l1,
                             const CacheStats &l2);

/**
 * The full hierarchy: a FrontEnd composed with a BackEnd.
 */
class Hierarchy
{
  public:
    /**
     * @param config system configuration
     * @param model  position-error model (racetrack LLC only; may be
     *               null for SRAM/STT-RAM configurations)
     */
    Hierarchy(const HierarchyConfig &config,
              const PositionErrorModel *model);

    /**
     * Service one data access from `core` at absolute time `now`.
     */
    HierarchyAccess access(int core, Addr addr, bool is_write,
                           Cycles now)
    {
        return back_.access(front_.access(core, addr, is_write), addr,
                            is_write, now);
    }

    /** L1 data cache of a core (stats inspection). */
    const Cache &l1(int core) const { return front_.l1(core); }

    /** L2 of a core pair. */
    const Cache &l2(int cluster) const { return front_.l2(cluster); }

    /** Shared L3. */
    const Cache &l3() const { return back_.l3(); }

    /** Racetrack shift engine (null for SRAM/STT-RAM LLC). */
    RmBank *rmBank() { return back_.rmBank(); }
    const RmBank *rmBank() const { return back_.rmBank(); }

    /** DRAM accesses so far. */
    uint64_t dramAccesses() const { return back_.dramAccesses(); }

    /** Total dynamic energy of DRAM accesses. */
    Joules dramEnergy() const { return back_.dramEnergy(); }

    /** Static power of all cache levels combined, watts. */
    double totalLeakageWatts() const
    {
        return back_.totalLeakageWatts();
    }

    const HierarchyConfig &config() const { return config_; }

    /**
     * Export cumulative per-level hit/miss/writeback counters (L1
     * summed across cores, L2 across clusters, L3, DRAM) and the
     * racetrack bank's ledger counters into `sink`'s registry.
     * End-of-run snapshot: cheaper than per-access instrumentation
     * and exactly consistent with the CacheStats/RmBankStats
     * ledgers.
     */
    void exportTelemetry(Telemetry &sink) const;

  private:
    HierarchyConfig config_;
    FrontEnd front_;
    BackEnd back_;
};

} // namespace rtm

#endif // RTM_MEM_HIERARCHY_HH
