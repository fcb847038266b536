/**
 * @file
 * Trace-driven system simulator (paper Sec. 6.1).
 *
 * Four in-order single-issue 2 GHz cores execute synthetic workload
 * streams: non-memory instructions retire one per cycle, memory
 * operations block their core for the hierarchy latency. The cores
 * advance loosely in lockstep (round-robin request interleave), which
 * captures what the evaluation needs: LLC access intensity, shift
 * distance/interval distributions, end-to-end execution time, and
 * energy.
 *
 * Outputs per run: execution time, per-level energy, shift statistics
 * and the reliability accumulators that Figs. 10-12 read.
 */

#ifndef RTM_SIM_SYSTEM_HH
#define RTM_SIM_SYSTEM_HH

#include <memory>
#include <string>

#include "device/error_model.hh"
#include "mem/hierarchy.hh"
#include "model/reliability.hh"
#include "trace/workload.hh"
#include "util/parallel.hh"
#include "util/units.hh"

namespace rtm
{

/** Result of one simulated workload run. */
struct SimResult
{
    std::string workload;
    MemTech llc_tech = MemTech::SRAM;
    Scheme scheme = Scheme::Baseline;

    uint64_t instructions = 0;
    uint64_t mem_ops = 0;
    Cycles cycles = 0;
    Seconds seconds = 0.0;

    // Energy breakdown (joules).
    Joules cache_dynamic_energy = 0.0; //!< all cache levels + shifts
    Joules llc_shift_energy = 0.0;
    Joules dram_energy = 0.0;
    Joules leakage_energy = 0.0;

    // LLC behaviour.
    uint64_t llc_accesses = 0;
    uint64_t llc_misses = 0;
    uint64_t dram_accesses = 0; //!< measured phase (warmup excluded)
    uint64_t shift_ops = 0;
    uint64_t shift_steps = 0;
    Cycles shift_cycles = 0;

    // Placement migrations (racetrack LLC with a dynamic placement
    // policy; zero otherwise). Their steps are included in
    // shift_steps.
    uint64_t migrations = 0;
    uint64_t migration_steps = 0;

    // Pooled-codeword redundancy traffic (racetrack LLC under a
    // multi-frame protection domain; zero under the default
    // per-frame policy). Counted inside llc/shift totals too.
    uint64_t redundancy_accesses = 0;
    uint64_t redundancy_steps = 0;

    // Reliability (racetrack only; +inf otherwise).
    Seconds sdc_mttf = 0.0;
    Seconds due_mttf = 0.0;

    /** Total energy including leakage and DRAM. */
    Joules totalEnergy() const
    {
        return cache_dynamic_energy + dram_energy + leakage_energy;
    }

    /** Instructions per cycle across all cores. */
    double ipc() const;

    /**
     * Shift steps (total shift distance, migrations included) per
     * LLC access — the metric data placement minimises.
     */
    double shiftsPerAccess() const;
};

/** One simulation configuration. */
struct SimConfig
{
    HierarchyConfig hierarchy;
    uint64_t mem_requests = 200000; //!< requests to simulate
    uint64_t warmup_requests = 20000;
    uint64_t seed = 42;

    /**
     * Observability sink for this run: forwarded into the hierarchy
     * (and the racetrack bank), plus sim-level counters, an access
     * latency histogram, and LLC miss-burst events. Disabled (null)
     * by default; SimResult is bit-identical either way.
     */
    TelemetryScope telemetry = {};

    /**
     * Optional cooperative stop flag, polled periodically inside the
     * warmup and measure loops. When it trips the run returns early
     * with a partial (invalid) result — the caller is responsible for
     * discarding it, which the experiment engine does by classifying
     * the cell as cancelled/timed-out instead of completed.
     */
    StopFlag *stop = nullptr;

    /**
     * When non-null, receives the racetrack bank's per-frame access
     * counts at the end of the run (empty for non-racetrack LLCs or
     * non-tracking placement policies). A profiling pass sets
     * `hierarchy.placement.track_counts` and feeds the counts back
     * as the offline hot-center profile of a second run.
     */
    std::vector<uint64_t> *frame_profile_out = nullptr;
};

class FrontEndTape;

/**
 * Run one configuration over a workload's front-end tape
 * (sim/frontend_tape.hh), from its first record: the records replay
 * through a fresh back end (L3, racetrack bank, DRAM) built from
 * `config`. The tape must model config's L1/L2 geometry over warmup
 * + measured requests. Any number of runs may read one tape at once,
 * and a run may start after others have finished (a retry); the
 * tape produces each chunk once, for whichever run reaches it first.
 */
SimResult simulateOnTape(const std::string &name, FrontEndTape &tape,
                         const SimConfig &config,
                         const PositionErrorModel *model);

/**
 * Run one workload through one configuration.
 *
 * @param profile workload profile
 * @param config  simulation configuration
 * @param model   position-error model for racetrack LLCs (ignored
 *                otherwise; must outlive the call)
 */
SimResult simulate(const WorkloadProfile &profile,
                   const SimConfig &config,
                   const PositionErrorModel *model);

/**
 * Run a recorded trace through one configuration (the trace loops
 * if it is shorter than config.mem_requests). The warmup phase is
 * also served from the trace.
 *
 * @param name     label recorded in the result
 * @param requests the trace (must be non-empty)
 */
SimResult simulateTrace(const std::string &name,
                        const std::vector<MemRequest> &requests,
                        const SimConfig &config,
                        const PositionErrorModel *model);

} // namespace rtm

#endif // RTM_SIM_SYSTEM_HH
