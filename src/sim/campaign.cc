#include "campaign.hh"

#include "model/tech.hh"
#include "sim/experiment.hh"
#include "util/fields.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{

namespace
{

/** SplitMix64 finaliser: cell seeds from (campaign seed, index). */
uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The brief view — each reported cell row and the campaign.*
 * telemetry counters — drops the raw injection breakdown; totals and
 * journal checkpoints carry the full ledger.
 */
constexpr Field<CampaignLedger> kLedgerFields[] = {
    field<&CampaignLedger::accesses>("accesses"),
    field<&CampaignLedger::injected_samples>("injected_samples")
        .in(kFullView),
    field<&CampaignLedger::injected_faults>("injected_faults"),
    field<&CampaignLedger::injected_step_errors>("injected_step_errors")
        .in(kFullView),
    field<&CampaignLedger::injected_stops>("injected_stops")
        .in(kFullView),
    field<&CampaignLedger::detected>("detected"),
    field<&CampaignLedger::corrected>("corrected"),
    field<&CampaignLedger::recovered_retry>("recovered_retry"),
    field<&CampaignLedger::recovered_realign>("recovered_realign"),
    field<&CampaignLedger::recovered_scrub>("recovered_scrub"),
    field<&CampaignLedger::due>("due"),
    field<&CampaignLedger::sdc>("sdc"),
};

constexpr Field<ControllerStats> kControllerFields[] = {
    field<&ControllerStats::accesses>("accesses"),
    field<&ControllerStats::shift_ops>("shift_ops"),
    field<&ControllerStats::shift_steps>("shift_steps"),
    field<&ControllerStats::detected_errors>("detected_errors"),
    field<&ControllerStats::corrected_errors>("corrected_errors"),
    field<&ControllerStats::unrecoverable>("unrecoverable"),
    field<&ControllerStats::silent_errors>("silent_errors"),
    field<&ControllerStats::busy_cycles>("busy_cycles"),
    field<&ControllerStats::distance_histogram>("distance_histogram"),
    field<&ControllerStats::retry_attempts>("retry_attempts"),
    field<&ControllerStats::sts_realigns>("sts_realigns"),
    field<&ControllerStats::scrubs>("scrubs"),
    field<&ControllerStats::recovered_retry>("recovered_retry"),
    field<&ControllerStats::recovered_realign>("recovered_realign"),
    field<&ControllerStats::recovered_scrub>("recovered_scrub"),
    field<&ControllerStats::recovery_cycles>("recovery_cycles"),
};

/**
 * The full view is the journal checkpoint (raw accumulators, so a
 * replayed cell is bit-identical); the brief view is the per-cell
 * row of the reported campaign section.
 */
constexpr Field<CampaignCellResult> kCellFields[] = {
    field<&CampaignCellResult::scenario>("scenario"),
    field<&CampaignCellResult::workload>("workload"),
    nested<kLedgerFields, &CampaignCellResult::ledger>("ledger")
        .in(kFullView),
    nested<kLedgerFields, &CampaignCellResult::ledger>(nullptr)
        .in(kBriefView),
    nested<kControllerFields, &CampaignCellResult::controller>(
        "controller")
        .in(kFullView),
    field<&CampaignCellResult::access_latency>("access_latency")
        .in(kFullView),
    field<&CampaignCellResult::recovery_latency>("recovery_latency")
        .in(kFullView),
    derived<&RunningStats::mean, &CampaignCellResult::access_latency>(
        "mean_access_cycles")
        .in(kBriefView),
    derived<&RunningStats::mean, &CampaignCellResult::recovery_latency>(
        "mean_recovery_cycles")
        .in(kBriefView),
    field<&CampaignCellResult::bank_due_reports>("bank_due_reports")
        .in(kFullView),
    field<&CampaignCellResult::bank_degraded_groups>(
        "bank_degraded_groups"),
    field<&CampaignCellResult::bank_remapped_accesses>(
        "bank_remapped_accesses")
        .in(kFullView),
    field<&CampaignCellResult::degraded_capacity_fraction>(
        "degraded_capacity_fraction"),
    field<&CampaignCellResult::contained>("contained"),
    field<&CampaignCellResult::violation>("violation"),
};

} // anonymous namespace

void
CampaignLedger::merge(const CampaignLedger &other)
{
    accesses += other.accesses;
    injected_samples += other.injected_samples;
    injected_faults += other.injected_faults;
    injected_step_errors += other.injected_step_errors;
    injected_stops += other.injected_stops;
    detected += other.detected;
    corrected += other.corrected;
    recovered_retry += other.recovered_retry;
    recovered_realign += other.recovered_realign;
    recovered_scrub += other.recovered_scrub;
    due += other.due;
    sdc += other.sdc;
}

CampaignCellResult
runFaultDrill(const ScenarioSpec &spec,
              const WorkloadProfile &profile,
              const CampaignConfig &config, uint64_t cell_seed,
              TelemetryScope telemetry, StopFlag *stop)
{
    // Cooperative cancellation stride for both drill loops.
    constexpr uint64_t kStopPollMask = 255;
    ScopedPhase cell_phase("campaign.cell");
    const double cell_start = telemetry ? telemetryNowSeconds() : 0.0;
    CampaignCellResult res;
    res.scenario = spec.name;
    res.workload = profile.name;

    auto base = std::make_shared<PaperCalibratedErrorModel>();
    auto scaled =
        std::make_shared<ScaledErrorModel>(base, config.scale);
    std::unique_ptr<FaultScenario> scenario =
        makeScenario(spec, scaled);

    Rng cell_rng(cell_seed);
    ShiftController ctl(config.pecc, scenario.get(), config.policy,
                        config.peak_ops_per_second, cell_rng.fork(),
                        kDefaultSafeMttfSeconds, config.recovery,
                        telemetry);
    ctl.initialize();

    WorkloadGenerator gen(profile, config.workload_cores,
                          mixSeed(cell_seed, 1));
    const int num_segments = config.pecc.num_segments;
    const int seg_len = config.pecc.seg_len;
    LatencyHistogram *t_lat =
        telemetry ? &telemetry->histogram(
                        "campaign.access_latency_cycles",
                        powerOfTwoEdges(65536.0))
                  : nullptr;
    uint64_t seen_injected = 0;
    Cycles now = 0;
    Cycles prev_recovery = 0;
    for (uint64_t i = 0; i < config.accesses_per_cell; ++i) {
        if (stop && (i & kStopPollMask) == 0 && stop->poll())
            return res;
        MemRequest req = gen.next();
        uint64_t line = req.addr / 64;
        int seg = static_cast<int>(
            line % static_cast<uint64_t>(num_segments));
        int idx = static_cast<int>(
            (line / static_cast<uint64_t>(num_segments)) %
            static_cast<uint64_t>(seg_len));
        AccessResult r =
            req.is_write
                ? ctl.write(seg, idx,
                            (i & 1) ? Bit::One : Bit::Zero, now)
                : ctl.read(seg, idx, now);
        now += r.latency + req.gap_instructions + 1;
        res.access_latency.add(static_cast<double>(r.latency));
        if (telemetry) {
            t_lat->record(static_cast<double>(r.latency));
            // Ground-truth injections that landed during this
            // access: one ErrorInjected event each, reconciled
            // against the scenario ledger by the tests.
            const InjectionLedger &il = scenario->ledger();
            for (; seen_injected < il.injected; ++seen_injected)
                telemetry->event(EventKind::ErrorInjected,
                                 "scenario", now,
                                 static_cast<double>(i));
        }
        const ControllerStats &cs = ctl.stats();
        if (cs.recovery_cycles > prev_recovery) {
            res.recovery_latency.add(static_cast<double>(
                cs.recovery_cycles - prev_recovery));
            prev_recovery = cs.recovery_cycles;
        }
        // Containment action: a reported DUE (or a ground-truth
        // misalignment the code missed — an SDC, already counted by
        // the controller) invalidates the stripe; model the
        // refetch-from-below by rebuilding at home alignment.
        if (r.due || !r.position_ok)
            ctl.initialize();
    }

    const ControllerStats &cs = ctl.stats();
    const InjectionLedger &inj = scenario->ledger();
    res.controller = cs;
    res.ledger.accesses = config.accesses_per_cell;
    res.ledger.injected_samples = inj.samples;
    res.ledger.injected_faults = inj.injected;
    res.ledger.injected_step_errors = inj.step_errors;
    res.ledger.injected_stops = inj.stop_in_middle;
    res.ledger.detected = cs.detected_errors;
    res.ledger.corrected = cs.corrected_errors;
    res.ledger.recovered_retry = cs.recovered_retry;
    res.ledger.recovered_realign = cs.recovered_realign;
    res.ledger.recovered_scrub = cs.recovered_scrub;
    res.ledger.due = cs.unrecoverable;
    res.ledger.sdc = cs.silent_errors;

    // Bank degradation drill: the same scaled model drives an RmBank
    // with injected DUE reports; the bank must degrade gracefully and
    // keep its per-group ledger consistent.
    RmBankConfig bank_config;
    bank_config.line_frames = config.bank_frames;
    bank_config.scheme = Scheme::PeccSAdaptive;
    bank_config.group_retry_budget = config.group_retry_budget;
    bank_config.telemetry = telemetry;
    TechParams tech = l3For(MemTech::Racetrack);
    RmBank bank(bank_config, scaled.get(), tech);
    Rng bank_rng(mixSeed(cell_seed, 2));
    Cycles bank_now = 0;
    for (uint64_t i = 0; i < config.accesses_per_cell; ++i) {
        if (stop && (i & kStopPollMask) == 0 && stop->poll())
            return res;
        uint64_t frame = bank_rng.uniformInt(config.bank_frames);
        ShiftCost c = bank.accessFrame(frame, bank_now);
        bank_now += c.latency + 4;
        if (bank_rng.bernoulli(config.bank_due_prob))
            bank.reportUnrecoverable(frame);
    }
    res.bank_due_reports = bank.stats().due_reports;
    res.bank_degraded_groups = bank.stats().degraded_groups;
    res.bank_remapped_accesses = bank.stats().remapped_accesses;
    res.degraded_capacity_fraction = bank.degradedCapacityFraction();

    // Containment checks: every injected fault must be accounted, the
    // ledgers must reconcile, and the cell must end aligned.
    res.violation = controllerLedgerViolation(cs);
    if (res.violation.empty())
        res.violation = bank.ledgerViolation();
    if (res.violation.empty() && cs.detected_errors > inj.injected)
        res.violation = "more detections than injected faults";
    if (res.violation.empty() &&
        ctl.stripe().positionError() != 0) {
        res.violation = "cell ended misaligned";
    }
    res.contained = res.violation.empty();

    if (telemetry) {
        // Counters exported from the reconciled ledger's brief view
        // itself — one source of truth, two views — so the JSON export
        // can never disagree with CampaignResult totals.
        Telemetry &t = *telemetry.get();
        t.counter("campaign.cells").add();
        const JsonValue brief =
            fieldsToJson(kLedgerFields, res.ledger, kBriefView);
        for (const auto &[key, value] : brief.members())
            t.counter("campaign." + key).add(value.asU64());
        t.counter("campaign.bank.due_reports")
            .add(res.bank_due_reports);
        t.counter("campaign.bank.degraded_groups")
            .add(res.bank_degraded_groups);
        t.counter("campaign.bank.remapped_accesses")
            .add(res.bank_remapped_accesses);
        if (!res.contained)
            t.counter("campaign.violations").add();
        const double wall = telemetryNowSeconds() - cell_start;
        t.histogram("campaign.cell_wall_ms", powerOfTwoEdges(65536.0))
            .record(wall * 1e3);
        t.event(EventKind::Span, "campaign.cell",
                static_cast<uint64_t>(cell_start * 1e6), wall * 1e6);
    }
    return res;
}

void
appendCampaignJobs(ExperimentEngine &engine, CampaignResult *out,
                   const std::vector<ScenarioSpec> &scenarios,
                   const std::vector<WorkloadProfile> &profiles,
                   const CampaignConfig &config)
{
    // One cell per slot: the seed depends only on (campaign seed,
    // cell index), so any RTM_THREADS — and any interleaving with
    // other jobs on the engine — produces identical results.
    const size_t n = scenarios.size() * profiles.size();
    const size_t base = out->cells.size();
    out->cells.resize(base + n);
    for (size_t i = 0; i < n; ++i) {
        const size_t si = i / profiles.size();
        const size_t wi = i % profiles.size();
        CampaignCellResult *slot = &out->cells[base + i];
        const ScenarioSpec spec = scenarios[si];
        const WorkloadProfile profile = profiles[wi];
        const uint64_t cell_seed = mixSeed(config.seed, i);
        const CampaignConfig cell_config = config;
        ExperimentEngine::Cell cell;
        cell.label = spec.name + "/" + profile.name;
        cell.body = [slot, spec, profile, cell_config,
                     cell_seed](TelemetryScope shard,
                                StopFlag *stop) {
            *slot = runFaultDrill(spec, profile, cell_config,
                                  cell_seed, shard, stop);
        };
        cell.save = [slot] { return campaignCellToJson(*slot); };
        cell.load = [slot](const JsonValue &doc) {
            return campaignCellFromJson(doc, slot);
        };
        engine.addCell(std::move(cell));
    }
}

void
finalizeCampaignTotals(CampaignResult *out)
{
    out->totals = CampaignLedger();
    out->contained_cells = 0;
    for (const CampaignCellResult &cell : out->cells) {
        out->totals.merge(cell.ledger);
        if (cell.contained)
            ++out->contained_cells;
    }
}

CampaignResult
runCampaign(const std::vector<ScenarioSpec> &scenarios,
            const std::vector<std::string> &workloads,
            const CampaignConfig &config)
{
    ScopedPhase run_phase("campaign.run");
    if (scenarios.empty() || workloads.empty())
        rtm_fatal("campaign needs at least one scenario/workload");
    std::vector<WorkloadProfile> profiles;
    profiles.reserve(workloads.size());
    for (const std::string &name : workloads)
        profiles.push_back(parsecProfile(name));

    CampaignResult out;
    ExperimentEngine engine(config.telemetry_ring_capacity);
    appendCampaignJobs(engine, &out, scenarios, profiles, config);
    engine.run(config.telemetry);
    finalizeCampaignTotals(&out);
    return out;
}

JsonValue
campaignCellToJson(const CampaignCellResult &cell)
{
    return fieldsToJson(kCellFields, cell);
}

bool
campaignCellFromJson(const JsonValue &doc, CampaignCellResult *out)
{
    return loadFields(kCellFields, doc, out);
}

JsonValue
campaignResultToJson(const CampaignResult &result)
{
    JsonValue doc = JsonValue::object();
    doc.set("cells", listToJson(kCellFields, result.cells, kBriefView));
    doc.set("totals", fieldsToJson(kLedgerFields, result.totals));
    doc.set("contained_cells", result.contained_cells);
    doc.set("total_cells",
            static_cast<uint64_t>(result.cells.size()));
    doc.set("containment_coverage",
            result.cells.empty()
                ? 1.0
                : static_cast<double>(result.contained_cells) /
                      static_cast<double>(result.cells.size()));
    return doc;
}

} // namespace rtm
