/**
 * @file
 * Matrix runner: sweeps workloads x (technology, scheme) pairs and
 * normalises results, shared by the Fig. 14/16/17/18 benches and the
 * example applications.
 */

#ifndef RTM_SIM_RUNNER_HH
#define RTM_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "sim/system.hh"

namespace rtm
{

class ExperimentEngine;

/** One LLC configuration of the Fig. 16-18 comparison. */
struct LlcOption
{
    std::string label;
    MemTech tech = MemTech::SRAM;
    Scheme scheme = Scheme::Baseline;

    // Racetrack placement / port-scheduling axes (ignored by
    // SRAM/STT-RAM options). The defaults reproduce the historical
    // behaviour bit-identically.
    PlacementKind placement = PlacementKind::Static;
    uint64_t placement_epoch = 64;  //!< per-group epoch accesses
    int placement_swap_budget = 4;  //!< adaptive swaps per epoch
    HeadPolicy head_policy = HeadPolicy::Stay;

    bool operator==(const LlcOption &o) const = default;
};

/** The paper's standard comparison set (Fig. 16-18 legends). */
std::vector<LlcOption> standardLlcOptions();

/** The paper's racetrack protection set (Fig. 14 legend). */
std::vector<LlcOption> racetrackSchemeOptions();

/** The shift-code family (lm-pos, del-ins-k) with a p-ECC anchor. */
std::vector<LlcOption> shiftCodeLlcOptions();

/** Results for one workload across every option. */
struct WorkloadMatrixRow
{
    WorkloadProfile profile;
    std::vector<SimResult> results; //!< one per option, same order
};

/**
 * Shrink a workload's working set by the hierarchy capacity divisor
 * (see HierarchyConfig::capacity_divisor), keeping every other
 * characteristic intact.
 */
WorkloadProfile scaledProfile(WorkloadProfile profile,
                              uint64_t divisor);

/**
 * The simulation config of one matrix cell: `opt`'s technology,
 * scheme and placement axes over the run-wide parameters. Trace
 * replays (`rtmsim run --trace`) use the same mapping.
 */
SimConfig matrixCellConfig(const LlcOption &opt, uint64_t requests,
                           uint64_t warmup, uint64_t capacity_divisor,
                           uint64_t seed,
                           const ProtectionPolicy &protection);

/**
 * Run every workload against every option.
 *
 * Cells are simulated in parallel on the global ThreadPool (see
 * util/parallel.hh, RTM_THREADS); results are bit-identical at any
 * worker count and keep the serial ordering.
 *
 * @param options  LLC options to sweep
 * @param model    position-error model (racetrack options)
 * @param requests memory requests per run
 * @param warmup   warmup requests per run
 * @param capacity_divisor uniform hierarchy/working-set shrink
 * @param telemetry optional observability sink: each cell writes a
 *                 private shard (per-cell wall-clock spans, sim
 *                 counters) merged into the sink in cell order, so
 *                 the export is bit-identical at any RTM_THREADS.
 */
std::vector<WorkloadMatrixRow>
runMatrix(const std::vector<LlcOption> &options,
          const PositionErrorModel *model, uint64_t requests,
          uint64_t warmup = 20000, uint64_t capacity_divisor = 1,
          TelemetryScope telemetry = {});

/**
 * Queue one matrix cell per (profile, option) pair on `engine`
 * (workload-major, the runMatrix order) without running them; `rows`
 * is sized here and filled when the engine runs. This is how matrix
 * cells join a larger job set (sim/experiment.hh) — runMatrix itself
 * is a thin append + run wrapper.
 *
 * `rows` must stay at a stable address until the engine has run.
 *
 * `protection` applies to every racetrack cell (the spec-level
 * protection-domain policy); the default policy is the paper's
 * per-frame configuration and changes nothing.
 */
void appendMatrixJobs(ExperimentEngine &engine,
                      std::vector<WorkloadMatrixRow> *rows,
                      const std::vector<WorkloadProfile> &profiles,
                      const std::vector<LlcOption> &options,
                      const PositionErrorModel *model,
                      uint64_t requests, uint64_t warmup,
                      uint64_t capacity_divisor, uint64_t seed,
                      const ProtectionPolicy &protection = {});

/** Geometric mean over positive values. */
double geomean(const std::vector<double> &values);

} // namespace rtm

#endif // RTM_SIM_RUNNER_HH
