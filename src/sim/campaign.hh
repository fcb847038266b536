/**
 * @file
 * Fault-injection campaign runner.
 *
 * A campaign sweeps fault scenarios (device/fault_scenario.hh)
 * against synthetic workload profiles, driving every cell through a
 * recovery-hardened ShiftController plus an RmBank degradation drill,
 * and reconciles the ground-truth injection ledger against the
 * controller's detection/correction/recovery/DUE/SDC accounting.
 *
 * The point is *containment*, not error-free operation: under an
 * adversarial regime every injected fault must end in exactly one
 * accounted outcome (in-line correction, a ladder rung, a reported
 * DUE, or a counted SDC) with no crash, hang, or ledger mismatch.
 *
 * Cells run in parallel on the global thread pool; every cell derives
 * its RNG streams from the campaign seed and its cell index alone, so
 * results are bit-identical for any RTM_THREADS setting.
 */

#ifndef RTM_SIM_CAMPAIGN_HH
#define RTM_SIM_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.hh"
#include "device/fault_scenario.hh"
#include "mem/rm_bank.hh"
#include "trace/workload.hh"
#include "util/parallel.hh"
#include "util/serde.hh"
#include "util/stats.hh"

namespace rtm
{

class ExperimentEngine;

/** Configuration of one fault-injection campaign. */
struct CampaignConfig
{
    uint64_t accesses_per_cell = 3000; //!< controller accesses
    uint64_t seed = 0x7a5e;            //!< campaign master seed
    /** Error-rate acceleration over the paper's calibrated rates
     *  (fault injection at nominal rates would need ~1e9 accesses
     *  per cell to exercise the ladder). */
    double scale = 2000.0;

    /** Stripe protection: two segments keep scrub image dumps cheap
     *  while exercising the same code paths as the full geometry. */
    PeccConfig pecc{2, 8, 1, PeccVariant::Standard};
    /** Recovery ladder: 2 retries, realign and scrub enabled. */
    RecoveryConfig recovery{2, true, true, 2, 1024};
    ShiftPolicy policy = ShiftPolicy::Adaptive;
    double peak_ops_per_second = 83e6;
    int workload_cores = 4;

    // Bank degradation drill (runs alongside the controller drill).
    uint64_t bank_frames = 1024;
    /** Probability an access also reports an injected DUE. */
    double bank_due_prob = 0.01;
    /** DUE reports a group tolerates before it is retired. */
    int group_retry_budget = 2;

    /**
     * Observability sink for the whole campaign: each cell writes a
     * private shard (injection/detection/ladder events, counters
     * mirroring the ledger, per-cell wall-clock) merged in cell
     * order, so the export is bit-identical at any RTM_THREADS.
     * Disabled (null) by default.
     */
    TelemetryScope telemetry = {};

    /**
     * Per-cell event-ring capacity. Event *counts* survive ring
     * overwrite either way; raise this when a consumer needs every
     * individual event retained (e.g. the reconciliation tests).
     */
    size_t telemetry_ring_capacity = Telemetry::kDefaultRingCapacity;
};

/** Reconciled per-cell (and campaign-total) fault ledger. */
struct CampaignLedger
{
    uint64_t accesses = 0;

    // Ground truth from the scenario's injection ledger.
    uint64_t injected_samples = 0; //!< shift outcomes drawn
    uint64_t injected_faults = 0;  //!< non-ok outcomes injected
    uint64_t injected_step_errors = 0;
    uint64_t injected_stops = 0;

    // Controller-side accounting.
    uint64_t detected = 0;
    uint64_t corrected = 0;         //!< in-line counter-shifts
    uint64_t recovered_retry = 0;   //!< ladder rung 1
    uint64_t recovered_realign = 0; //!< ladder rung 2
    uint64_t recovered_scrub = 0;   //!< ladder rung 3
    uint64_t due = 0;               //!< reported DUEs
    uint64_t sdc = 0;               //!< ground-truth-counted SDCs

    /** Per-field sum (totals aggregation). */
    void merge(const CampaignLedger &other);
};

/** Outcome of one (scenario, workload) campaign cell. */
struct CampaignCellResult
{
    std::string scenario;
    std::string workload;
    CampaignLedger ledger;
    ControllerStats controller;
    RunningStats access_latency;   //!< cycles per access
    RunningStats recovery_latency; //!< cycles per recovery episode

    // Bank degradation drill.
    uint64_t bank_due_reports = 0;
    uint64_t bank_degraded_groups = 0;
    uint64_t bank_remapped_accesses = 0;
    double degraded_capacity_fraction = 0.0;

    bool contained = false; //!< all containment checks passed
    std::string violation;  //!< first failed check (empty if none)
};

/** Aggregated campaign outcome. */
struct CampaignResult
{
    std::vector<CampaignCellResult> cells;
    CampaignLedger totals;
    uint64_t contained_cells = 0;

    bool allContained() const
    {
        return contained_cells == cells.size();
    }
};

/**
 * Run one campaign cell: `config.accesses_per_cell` workload-driven
 * accesses through a recovery-hardened controller under `spec`'s
 * fault regime, plus the bank degradation drill. `cell_seed` fixes
 * every RNG stream of the cell.
 */
CampaignCellResult runFaultDrill(const ScenarioSpec &spec,
                                 const WorkloadProfile &profile,
                                 const CampaignConfig &config,
                                 uint64_t cell_seed,
                                 TelemetryScope telemetry = {},
                                 StopFlag *stop = nullptr);

/**
 * Sweep scenarios x workloads in parallel (global pool). Workload
 * names resolve through parsecProfile(). Bit-identical for any
 * RTM_THREADS under a fixed config.seed.
 */
CampaignResult runCampaign(const std::vector<ScenarioSpec> &scenarios,
                           const std::vector<std::string> &workloads,
                           const CampaignConfig &config);

/**
 * Queue one drill per (scenario, profile) pair on `engine`
 * (scenario-major, the runCampaign order) without running them;
 * `out->cells` is sized here and filled when the engine runs. Cell
 * seeds depend only on (config.seed, pair index), so results are
 * bit-identical however the jobs interleave with the rest of the job
 * set. Call finalizeCampaignTotals after the engine has run.
 *
 * `out` must stay at a stable address until the engine has run.
 */
void appendCampaignJobs(ExperimentEngine &engine,
                        CampaignResult *out,
                        const std::vector<ScenarioSpec> &scenarios,
                        const std::vector<WorkloadProfile> &profiles,
                        const CampaignConfig &config);

/** Recompute totals/contained_cells from the finished cells. */
void finalizeCampaignTotals(CampaignResult *out);

/**
 * Full-fidelity serialisation of one campaign cell — every ledger,
 * controller and bank field plus the raw latency accumulators — so a
 * journaled cell replays into a bit-identical CampaignCellResult on
 * resume. (campaignResultToJson is the lossy *reporting* view; this
 * is the checkpointing view.)
 */
JsonValue campaignCellToJson(const CampaignCellResult &cell);

/** Restore a journaled cell; false on a malformed document. */
bool campaignCellFromJson(const JsonValue &doc,
                          CampaignCellResult *out);

/** The campaign result as a JSON document (serde layer). */
JsonValue campaignResultToJson(const CampaignResult &result);

} // namespace rtm

#endif // RTM_SIM_CAMPAIGN_HH
