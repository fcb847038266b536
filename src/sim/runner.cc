#include "runner.hh"

#include <cmath>

#include "sim/experiment.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{

std::vector<LlcOption>
standardLlcOptions()
{
    return {
        {"SRAM", MemTech::SRAM, Scheme::Baseline},
        {"STT-RAM", MemTech::STTRAM, Scheme::Baseline},
        {"RM-Ideal", MemTech::RacetrackIdeal, Scheme::Baseline},
        {"RM w/o p-ECC", MemTech::Racetrack, Scheme::Baseline},
        {"RM p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
        {"RM p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"RM p-ECC-S worst", MemTech::Racetrack, Scheme::PeccSWorst},
    };
}

std::vector<LlcOption>
racetrackSchemeOptions()
{
    return {
        {"Baseline", MemTech::Racetrack, Scheme::Baseline},
        {"p-ECC-O", MemTech::Racetrack, Scheme::PeccO},
        {"p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"p-ECC-S worst", MemTech::Racetrack, Scheme::PeccSWorst},
    };
}

std::vector<LlcOption>
shiftCodeLlcOptions()
{
    // The shift-code family (lm-pos, del-ins-k) next to the paper's
    // best racetrack scheme as a reference point.
    return {
        {"RM p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
        {"RM lm-pos", MemTech::Racetrack, Scheme::LmPos},
        {"RM del-ins-k", MemTech::Racetrack, Scheme::DelIns},
    };
}

WorkloadProfile
scaledProfile(WorkloadProfile profile, uint64_t divisor)
{
    if (divisor == 0)
        rtm_panic("capacity divisor must be >= 1");
    profile.working_set_bytes =
        std::max<uint64_t>(profile.working_set_bytes / divisor,
                           64 * 16);
    return profile;
}

SimConfig
matrixCellConfig(const LlcOption &opt, uint64_t requests,
                 uint64_t warmup, uint64_t capacity_divisor,
                 uint64_t seed, const ProtectionPolicy &protection)
{
    SimConfig cfg;
    cfg.hierarchy.llc_tech = opt.tech;
    cfg.hierarchy.scheme = opt.scheme;
    cfg.hierarchy.head_policy = opt.head_policy;
    cfg.hierarchy.placement.kind = opt.placement;
    cfg.hierarchy.placement.epoch_accesses = opt.placement_epoch;
    cfg.hierarchy.placement.swap_budget = opt.placement_swap_budget;
    cfg.hierarchy.capacity_divisor = capacity_divisor;
    cfg.hierarchy.protection = protection;
    cfg.mem_requests = requests;
    cfg.warmup_requests = warmup;
    cfg.seed = seed;
    return cfg;
}

void
appendMatrixJobs(ExperimentEngine &engine,
                 std::vector<WorkloadMatrixRow> *rows,
                 const std::vector<WorkloadProfile> &profiles,
                 const std::vector<LlcOption> &options,
                 const PositionErrorModel *model, uint64_t requests,
                 uint64_t warmup, uint64_t capacity_divisor,
                 uint64_t seed, const ProtectionPolicy &protection)
{
    // Every (workload, option) cell is an independent simulation:
    // simulate() builds its own hierarchy and RNG state per call and
    // only reads the shared error model (const, stateless for the
    // models used here). Cells are fanned out over the global pool
    // and written into pre-sized slots, so the output ordering — and
    // every result bit — is independent of the worker count.
    rows->resize(profiles.size());
    for (size_t w = 0; w < profiles.size(); ++w) {
        (*rows)[w].profile = profiles[w];
        (*rows)[w].results.resize(options.size());
    }
    const size_t cells = profiles.size() * options.size();
    const double matrix_start = telemetryNowSeconds();
    for (size_t cell = 0; cell < cells; ++cell) {
        const size_t w = cell / options.size();
        const size_t o = cell % options.size();
        const LlcOption opt = options[o];
        const WorkloadProfile profile = profiles[w];
        SimResult *slot = &(*rows)[w].results[o];
        ExperimentEngine::Cell job;
        job.label = profile.name + "/" + opt.label;
        job.body = [slot, opt, profile, model, requests, warmup,
                    capacity_divisor, seed, matrix_start, cell,
                    protection](TelemetryScope shard,
                                StopFlag *stop) {
            ScopedPhase cell_phase("runner.cell");
            WorkloadProfile run_profile =
                scaledProfile(profile, capacity_divisor);
            SimConfig cfg =
                matrixCellConfig(opt, requests, warmup,
                                 capacity_divisor, seed, protection);
            cfg.telemetry = shard;
            cfg.stop = stop;
            const double t0 = shard ? telemetryNowSeconds() : 0.0;
            *slot = simulate(run_profile, cfg, model);
            if (shard) {
                const double wall = telemetryNowSeconds() - t0;
                shard->histogram("runner.cell_wall_ms",
                                 powerOfTwoEdges(65536.0))
                    .record(wall * 1e3);
                shard->counter("runner.cells").add();
                shard->event(EventKind::Span, "runner.cell",
                             static_cast<uint64_t>(
                                 (t0 - matrix_start) * 1e6),
                             wall * 1e6, static_cast<double>(cell));
            }
        };
        job.save = [slot, profile, opt] {
            return simResultToJson(profile.name, opt, *slot);
        };
        job.load = [slot](const JsonValue &doc) {
            return simResultFromJson(doc, slot);
        };
        engine.addCell(std::move(job));
    }
}

std::vector<WorkloadMatrixRow>
runMatrix(const std::vector<LlcOption> &options,
          const PositionErrorModel *model, uint64_t requests,
          uint64_t warmup, uint64_t capacity_divisor,
          TelemetryScope telemetry)
{
    ScopedPhase matrix_phase("runner.matrix");
    std::vector<WorkloadMatrixRow> rows;
    ExperimentEngine engine;
    appendMatrixJobs(engine, &rows, parsecProfiles(), options,
                     model, requests, warmup, capacity_divisor,
                     SimConfig().seed);
    engine.run(telemetry);
    return rows;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            rtm_panic("geomean needs positive values");
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace rtm
