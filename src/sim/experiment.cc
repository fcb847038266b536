#include "experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>

#include "codec/protected_stripe.hh"
#include "model/reliability.hh"
#include "model/tech.hh"
#include "util/fields.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace rtm
{

namespace
{

constexpr EnumToken<CellStatus> kCellStatusRows[] = {
    {CellStatus::Ok, "ok"},
    {CellStatus::Failed, "failed"},
    {CellStatus::TimedOut, "timed_out"},
    {CellStatus::Cancelled, "cancelled"},
    {CellStatus::Skipped, "skipped"},
};
constexpr EnumTokens<CellStatus> kCellStatusTokens("cell status",
                                                   kCellStatusRows);

bool
knownProfileName(const std::string &name)
{
    for (const WorkloadProfile &p : parsecProfiles())
        if (p.name == name)
            return true;
    return false;
}

/** The campaign's historical default workload trio. */
std::vector<std::string>
defaultCampaignWorkloads()
{
    return {"swaptions", "canneal", "ferret"};
}

// --- spec schema -----------------------------------------------------
//
// One field table per spec struct, in emit order. The special cases
// of the schema are the custom rows and check() hooks next to them.

JsonValue
stringArray(const std::vector<std::string> &items)
{
    JsonValue v = JsonValue::array();
    for (const std::string &s : items)
        v.push(s);
    return v;
}

/** A workload list, each name checked against the catalogue. */
void
readWorkloads(SpecReader &r, const char *key,
              std::vector<std::string> *out)
{
    const JsonValue *arr = r.child(key, JsonType::Array);
    if (!arr)
        return;
    out->clear();
    for (size_t i = 0; i < arr->size(); ++i) {
        const JsonValue &item = arr->at(i);
        if (!item.isString()) {
            r.fail(key, "expected string workload name, got " +
                            std::string(jsonTypeName(item.type())));
            continue;
        }
        if (!knownProfileName(item.asString())) {
            r.fail(key, "unknown workload '" + item.asString() + "'");
            continue;
        }
        out->push_back(item.asString());
    }
}

void
checkPlacement(SpecReader &r, LlcOption *o)
{
    if (o->placement == PlacementKind::HotCenter)
        r.fail("policy", "hot-center needs an offline profile, which "
                         "only the library API can supply");
    if (o->placement_epoch == 0)
        r.fail("epoch", "must be >= 1 access");
    if (o->placement_swap_budget < 0)
        r.fail("swap_budget", "must be >= 0");
}

/** An option's placement / head-policy axes ("placement" object). */
constexpr Field<LlcOption> kPlacementFields[] = {
    field<&LlcOption::placement>("policy"),
    field<&LlcOption::placement_epoch>("epoch"),
    field<&LlcOption::placement_swap_budget>("swap_budget"),
    field<&LlcOption::head_policy>("head"),
    check<checkPlacement>(),
};

/** Whether an option carries a non-default placement/head setting. */
bool
nonDefaultPlacement(const LlcOption &o)
{
    return o.placement != PlacementKind::Static ||
           o.head_policy != HeadPolicy::Stay;
}

/**
 * An unlabelled option is named after its tech and scheme. Default
 * labels must stay distinct across a placement sweep, so non-default
 * axes are spelled out.
 */
void
defaultOptionLabel(SpecReader &r, LlcOption *o)
{
    if (r.has("label"))
        return;
    o->label = std::string(memTechName(o->tech)) + " " +
               schemeName(o->scheme);
    if (nonDefaultPlacement(*o))
        o->label += std::string(" [") +
                    placementKindName(o->placement) + "/" +
                    headPolicyName(o->head_policy) + "]";
}

constexpr Field<LlcOption> kOptionFields[] = {
    field<&LlcOption::label>("label"),
    field<&LlcOption::tech>("tech"),
    field<&LlcOption::scheme>("scheme"),
    nested<kPlacementFields>("placement"),
    check<defaultOptionLabel>(),
};

/** Catalogues an option list may name by string. */
struct OptionShortcut
{
    const char *name;
    std::vector<LlcOption> (*options)();
};
constexpr OptionShortcut kOptionShortcuts[] = {
    {"standard", standardLlcOptions},
    {"racetrack", racetrackSchemeOptions},
    {"shift-codes", shiftCodeLlcOptions},
};

/**
 * The matrix option list. Shortcuts resolve at parse time, so the
 * emitted spec is always an explicit list. A matrix-level
 * "placement" object is parse-time sugar: it seeds the placement
 * axes every option and shortcut inherits unless the option carries
 * its own, and without an option list it applies to the standard
 * catalogue.
 */
void
readOptions(SpecReader &r, const char *key, std::vector<LlcOption> *out)
{
    LlcOption defaults;
    if (const JsonValue *p = r.child("placement", JsonType::Object)) {
        SpecReader pr(r, "placement", *p);
        readObject(kPlacementFields, pr, &defaults);
    }
    auto append = [&defaults, out](std::vector<LlcOption> options) {
        for (LlcOption &o : options) {
            o.placement = defaults.placement;
            o.placement_epoch = defaults.placement_epoch;
            o.placement_swap_budget = defaults.placement_swap_budget;
            o.head_policy = defaults.head_policy;
            out->push_back(std::move(o));
        }
    };
    if (!r.has(key)) {
        if (nonDefaultPlacement(defaults)) {
            out->clear();
            append(standardLlcOptions());
        }
        return;
    }
    LlcOption proto = defaults;
    proto.tech = MemTech::Racetrack;
    proto.scheme = Scheme::PeccSAdaptive;
    readList(kOptionFields, r, key, out, proto,
             [&append, key](SpecReader &r, const std::string &name,
                            std::vector<LlcOption> *) {
                 std::string known;
                 for (const OptionShortcut &s : kOptionShortcuts) {
                     if (name == s.name) {
                         append(s.options());
                         return;
                     }
                     known += known.empty() ? "" : " | ";
                     known += s.name;
                 }
                 r.fail(key, "unknown option shortcut '" + name +
                                 "' (" + known + ")");
             });
}

void
checkMatrix(SpecReader &r, MatrixSpec *m)
{
    // The rtmsim convention: an unstated warmup tracks the request
    // count (one tenth), so shrinking a spec's requests on the command
    // line keeps the run proportioned.
    if (!r.has("warmup"))
        m->warmup = m->requests / 10;
    if (m->requests == 0)
        r.fail("requests", "must be >= 1");
    if (m->divisor == 0)
        r.fail("divisor", "must be >= 1");
}

constexpr Field<MatrixSpec> kMatrixFields[] = {
    field<&MatrixSpec::enabled>("enabled"),
    field<&MatrixSpec::requests>("requests"),
    field<&MatrixSpec::warmup>("warmup"),
    field<&MatrixSpec::divisor>("divisor"),
    field<&MatrixSpec::seed>("seed"),
    custom<stringArray, readWorkloads, &MatrixSpec::workloads>(
        "workloads"),
    custom<listOf<kOptionFields>, readOptions, &MatrixSpec::options>(
        "options"),
    {"placement"}, // known key, read by readOptions
    check<checkMatrix>(),
};

void
defaultScenarioName(SpecReader &r, ScenarioSpec *s)
{
    if (!r.has("name"))
        s->name = enumTokens(s->kind).token(s->kind);
}

constexpr Field<ScenarioSpec> kScenarioFields[] = {
    field<&ScenarioSpec::kind>("kind"),
    field<&ScenarioSpec::name>("name"),
    field<&ScenarioSpec::burst_period>("burst_period"),
    field<&ScenarioSpec::burst_len>("burst_len"),
    field<&ScenarioSpec::burst_multiplier>("burst_multiplier"),
    field<&ScenarioSpec::stuck_after>("stuck_after"),
    field<&ScenarioSpec::stuck_len>("stuck_len"),
    field<&ScenarioSpec::droop_period>("droop_period"),
    field<&ScenarioSpec::droop_len>("droop_len"),
    field<&ScenarioSpec::droop_undershoot_prob>("droop_undershoot_prob"),
    field<&ScenarioSpec::stripe_id>("stripe_id"),
    field<&ScenarioSpec::skew_sigma>("skew_sigma"),
    check<defaultScenarioName>(),
};

/** The scenario list; the string "standard" names the catalogue. */
void
readScenarios(SpecReader &r, const char *key,
              std::vector<ScenarioSpec> *out)
{
    readList(kScenarioFields, r, key, out, ScenarioSpec{},
             [key](SpecReader &r, const std::string &name,
                   std::vector<ScenarioSpec> *list) {
                 if (name != "standard") {
                     r.fail(key, "unknown scenario shortcut '" + name +
                                     "' (standard)");
                     return;
                 }
                 for (const ScenarioSpec &s : standardScenarios())
                     list->push_back(s);
             });
}

void
checkPecc(SpecReader &r, PeccConfig *c)
{
    if (c->num_segments < 1)
        r.fail("segments", "must be >= 1");
    if (c->seg_len < 2)
        r.fail("lseg", "must be >= 2");
}

constexpr Field<PeccConfig> kPeccFields[] = {
    field<&PeccConfig::num_segments>("segments"),
    field<&PeccConfig::seg_len>("lseg"),
    field<&PeccConfig::correct>("correct"),
    field<&PeccConfig::variant>("variant"),
    check<checkPecc>(),
};

constexpr Field<RecoveryConfig> kRecoveryFields[] = {
    field<&RecoveryConfig::retry_budget>("retry_budget"),
    field<&RecoveryConfig::sts_realign>("sts_realign"),
    field<&RecoveryConfig::allow_scrub>("allow_scrub"),
    field<&RecoveryConfig::max_replans>("max_replans"),
    field<&RecoveryConfig::scrub_cycles>("scrub_cycles"),
};

void
checkBank(SpecReader &r, CampaignConfig *c)
{
    if (c->bank_frames == 0)
        r.fail("frames", "must be >= 1");
}

/** The bank degradation drill's knobs ("bank" object). */
constexpr Field<CampaignConfig> kBankFields[] = {
    field<&CampaignConfig::bank_frames>("frames"),
    field<&CampaignConfig::bank_due_prob>("due_prob"),
    field<&CampaignConfig::group_retry_budget>("retry_budget"),
    check<checkBank>(),
};

void
checkCampaignConfig(SpecReader &r, CampaignConfig *c)
{
    if (c->accesses_per_cell == 0)
        r.fail("accesses", "must be >= 1");
    if (c->scale <= 0.0)
        r.fail("scale", "must be > 0");
}

/** CampaignConfig minus its telemetry wiring (not spec content). */
constexpr Field<CampaignConfig> kCampaignConfigFields[] = {
    field<&CampaignConfig::accesses_per_cell>("accesses"),
    field<&CampaignConfig::seed>("seed"),
    field<&CampaignConfig::scale>("scale"),
    field<&CampaignConfig::policy>("policy"),
    field<&CampaignConfig::peak_ops_per_second>("peak_ops_per_second"),
    field<&CampaignConfig::workload_cores>("workload_cores"),
    field<&CampaignConfig::telemetry_ring_capacity>("ring_capacity"),
    nested<kPeccFields, &CampaignConfig::pecc>("pecc"),
    nested<kRecoveryFields, &CampaignConfig::recovery>("recovery"),
    nested<kBankFields>("bank"),
    check<checkCampaignConfig>(),
};

constexpr Field<CampaignSpec> kCampaignFields[] = {
    field<&CampaignSpec::enabled>("enabled"),
    nested<kCampaignConfigFields, &CampaignSpec::config>(nullptr),
    custom<listOf<kScenarioFields>, readScenarios,
           &CampaignSpec::scenarios>("scenarios"),
    custom<stringArray, readWorkloads, &CampaignSpec::workloads>(
        "workloads"),
};

void
checkStress(SpecReader &r, StressSpec *s)
{
    Scheme scheme;
    PeccConfig cfg;
    const bool known = stressSchemeConfig(s->scheme, &scheme, &cfg);
    if (!known)
        r.fail("scheme", "unknown scheme '" + s->scheme + "'");
    if (s->scale <= 0.0)
        r.fail("scale", "must be > 0");
    if (s->lseg < 2) {
        r.fail("lseg", "must be >= 2");
    } else if (known) {
        cfg.seg_len = s->lseg;
        const std::string err = protectionGeometryError(cfg, 0);
        if (!err.empty())
            r.fail("lseg", err);
    }
}

constexpr Field<StressSpec> kStressFields[] = {
    field<&StressSpec::enabled>("enabled"),
    field<&StressSpec::scheme>("scheme"),
    field<&StressSpec::scale>("scale"),
    field<&StressSpec::ops>("ops"),
    field<&StressSpec::lseg>("lseg"),
    field<&StressSpec::seed>("seed"),
    check<checkStress>(),
};

void
checkMc(SpecReader &r, McSpec *s)
{
    McTier tier;
    if (!mcTierFromToken(s->tier, &tier))
        r.fail("tier", enumTokens(McTier{}).unknown(s->tier));
    if (s->distance < 1)
        r.fail("distance", "must be >= 1");
    if (s->trials < 1)
        r.fail("trials", "must be >= 1");
}

constexpr Field<McSpec> kMcFields[] = {
    field<&McSpec::enabled>("enabled"),
    field<&McSpec::distance>("distance"),
    field<&McSpec::trials>("trials"),
    field<&McSpec::fit_trials>("fit_trials"),
    field<&McSpec::seed>("seed"),
    field<&McSpec::tier>("tier"),
    check<checkMc>(),
};

constexpr Field<ResilienceSpec> kResilienceFields[] = {
    field<&ResilienceSpec::retry_budget>("retry_budget"),
    field<&ResilienceSpec::backoff_ms>("backoff_ms"),
    field<&ResilienceSpec::cell_deadline_ms>("cell_deadline_ms"),
    field<&ResilienceSpec::run_deadline_ms>("run_deadline_ms"),
};

/**
 * Validate the geometry a domain implies against the fixed hierarchy
 * defaults (Lseg, frames per group). The bank re-validates at
 * construction against its actual scheme; this front-loads the typed
 * diagnostic.
 */
void
checkDomain(SpecReader &r, ProtectionDomain *d)
{
    const HierarchyConfig geometry;
    const std::string err = protectionDomainError(
        *d, Scheme::PeccSAdaptive, geometry.seg_len,
        geometry.frames_per_group);
    if (!err.empty())
        r.fail("codeword_frames", err);
}

constexpr Field<ProtectionDomain> kDomainFields[] = {
    optional<&ProtectionDomain::has_scheme>(
        field<&ProtectionDomain::scheme>("scheme")),
    field<&ProtectionDomain::codeword_frames>("codeword_frames"),
    field<&ProtectionDomain::two_tier>("two_tier"),
    check<checkDomain>(),
};

void
checkLevel(SpecReader &r, ProtectionLevel *l)
{
    if (l->level != "l1" && l->level != "l2" && l->level != "llc")
        r.fail("level",
               "unknown cache level '" + l->level + "' (l1 | l2 | llc)");
}

constexpr Field<ProtectionLevel> kLevelFields[] = {
    field<&ProtectionLevel::level>("level"),
    nested<kDomainFields, &ProtectionLevel::domain>(nullptr),
    check<checkLevel>(),
};

void
checkRegion(SpecReader &r, ProtectionRegion *g)
{
    if (g->begin < 0.0 || g->begin >= 1.0)
        r.fail("begin", "must be in [0, 1)");
    if (g->end <= g->begin || g->end > 1.0)
        r.fail("end", "must be in (begin, 1]");
}

constexpr Field<ProtectionRegion> kRegionFields[] = {
    field<&ProtectionRegion::begin>("begin"),
    field<&ProtectionRegion::end>("end"),
    nested<kDomainFields, &ProtectionRegion::domain>(nullptr),
    check<checkRegion>(),
};

constexpr Field<ProtectionPolicy> kProtectionFields[] = {
    field<&ProtectionPolicy::kind>("kind"),
    nested<kDomainFields, &ProtectionPolicy::uniform>("uniform"),
    list<kLevelFields, &ProtectionPolicy::levels>("levels").onlyIf(
        [](const ProtectionPolicy &p) { return !p.levels.empty(); }),
    list<kRegionFields, &ProtectionPolicy::regions>("regions").onlyIf(
        [](const ProtectionPolicy &p) { return !p.regions.empty(); }),
};

/** The output sinks grouped under "telemetry". */
constexpr Field<ExperimentSpec> kTelemetryFields[] = {
    field<&ExperimentSpec::metrics_path>("metrics"),
    field<&ExperimentSpec::trace_path>("trace"),
};

constexpr Field<ExperimentSpec> kExperimentFields[] = {
    field<&ExperimentSpec::name>("name"),
    nested<kMatrixFields, &ExperimentSpec::matrix>("matrix"),
    nested<kCampaignFields, &ExperimentSpec::campaign>("campaign"),
    nested<kStressFields, &ExperimentSpec::stress>("stress"),
    nested<kMcFields, &ExperimentSpec::montecarlo>("montecarlo"),
    nested<kResilienceFields, &ExperimentSpec::resilience>("resilience"),
    // Omitted under the default policy so pre-existing specs keep
    // their emitted bytes (and resume-journal hashes).
    nested<kProtectionFields, &ExperimentSpec::protection>("protection")
        .onlyIf([](const ExperimentSpec &s) {
            return s.protection != ProtectionPolicy{};
        }),
    nested<kTelemetryFields>("telemetry"),
    field<&ExperimentSpec::output_path>("output"),
};

// --- result schema ---------------------------------------------------

/** MTTFs can be +inf (non-racetrack options); JSON has no inf. */
JsonValue
finiteOrNull(double v)
{
    return std::isfinite(v) ? JsonValue(v) : JsonValue();
}

/** finiteOrNull inverse: null restores +inf. */
void
readMttf(SpecReader &r, const char *key, double *out)
{
    if (r.has(key) && r.value().find(key)->isNull())
        *out = std::numeric_limits<double>::infinity();
    else
        r.readDouble(key, out);
}

bool
pooledTraffic(const SimResult &r)
{
    return r.redundancy_accesses > 0 || r.redundancy_steps > 0;
}

constexpr Field<SimResult> kSimResultFields[] = {
    field<&SimResult::workload>("workload"),
    field<&SimResult::llc_tech>("tech"),
    field<&SimResult::scheme>("scheme"),
    field<&SimResult::instructions>("instructions"),
    field<&SimResult::mem_ops>("mem_ops"),
    field<&SimResult::cycles>("cycles"),
    field<&SimResult::seconds>("seconds"),
    derived<&SimResult::ipc>("ipc"),
    field<&SimResult::llc_accesses>("llc_accesses"),
    field<&SimResult::llc_misses>("llc_misses"),
    field<&SimResult::dram_accesses>("dram_accesses"),
    field<&SimResult::shift_ops>("shift_ops"),
    field<&SimResult::shift_steps>("shift_steps"),
    field<&SimResult::shift_cycles>("shift_cycles"),
    derived<&SimResult::shiftsPerAccess>("shifts_per_access"),
    field<&SimResult::migrations>("migrations"),
    field<&SimResult::migration_steps>("migration_steps"),
    // Only present under a pooled-codeword protection domain, so
    // result documents (and their digests) keep their exact bytes
    // under the default policy.
    field<&SimResult::redundancy_accesses>("redundancy_accesses")
        .onlyIf(pooledTraffic),
    field<&SimResult::redundancy_steps>("redundancy_steps")
        .onlyIf(pooledTraffic),
    field<&SimResult::cache_dynamic_energy>("cache_dynamic_energy"),
    field<&SimResult::llc_shift_energy>("llc_shift_energy"),
    field<&SimResult::dram_energy>("dram_energy"),
    field<&SimResult::leakage_energy>("leakage_energy"),
    derived<&SimResult::totalEnergy>("total_energy"),
    custom<finiteOrNull, readMttf, &SimResult::sdc_mttf>("sdc_mttf"),
    custom<finiteOrNull, readMttf, &SimResult::due_mttf>("due_mttf"),
};

/**
 * The full view is the journal checkpoint (p-ECC geometry and the
 * distance tally included, which a resumed run needs back); the
 * brief view is the reported section.
 */
constexpr Field<StressResult> kStressResultFields[] = {
    field<&StressResult::scheme>("scheme"),
    nested<kPeccFields, &StressResult::pecc>("pecc").in(kFullView),
    field<&StressResult::corrected>("corrected"),
    field<&StressResult::due>("due"),
    field<&StressResult::silent>("silent"),
    field<&StressResult::clean>("clean"),
    field<&StressResult::exp_corrected>("expected_corrected"),
    field<&StressResult::exp_due>("expected_due"),
    field<&StressResult::exp_sdc>("expected_sdc"),
    field<&StressResult::distances>("distances").in(kFullView),
    derived<&IntTally::mean, &StressResult::distances>(
        "mean_shift_distance")
        .in(kBriefView),
};

constexpr Field<FittedModelParams> kFitFields[] = {
    field<&FittedModelParams::sigma_step>("sigma_step"),
    field<&FittedModelParams::resync_rho>("resync_rho"),
    field<&FittedModelParams::drift>("drift"),
    field<&FittedModelParams::notch_half_width>("notch_half_width"),
};

constexpr Field<McRunResult> kMcResultFields[] = {
    field<&McRunResult::distance>("distance"),
    field<&McRunResult::trials>("trials"),
    field<&McRunResult::tier>("tier"),
    field<&McRunResult::deviation_mean>("deviation_mean"),
    field<&McRunResult::deviation_stddev>("deviation_stddev"),
    field<&McRunResult::step_prob_ok>("step_prob_ok"),
    field<&McRunResult::step_prob_plus1>("step_prob_plus1"),
    field<&McRunResult::step_prob_minus1>("step_prob_minus1"),
    optional<&McRunResult::has_fit>(
        nested<kFitFields, &McRunResult::fit>("fit")),
};

/**
 * The stripe drill's schemes; each runs its scheme row's code. The
 * p-ECC-S schemes and STS differ from these only in shift planning
 * or controller timing, which the drill does not model.
 */
constexpr Scheme kStressSchemes[] = {
    Scheme::Baseline, Scheme::SedPecc, Scheme::PeccO,
    Scheme::SecdedPecc, Scheme::LmPos, Scheme::DelIns,
};

} // anonymous namespace

// --- engine ----------------------------------------------------------

const char *
cellStatusToken(CellStatus status)
{
    return kCellStatusTokens.token(status);
}

bool
ExperimentEngine::replayCell(size_t index, const JsonValue &result)
{
    if (index >= cells_.size())
        return false;
    Cell &cell = cells_[index];
    if (cell.replayed || !cell.load || !cell.load(result))
        return false;
    cell.replayed = true;
    if (cell.release)
        cell.release();
    return true;
}

void
ExperimentEngine::runCell(Cell &cell, size_t index,
                          TelemetryScope shard, double run_deadline)
{
    CellOutcome &out = outcomes_[index];
    const double t0 = monotonicSeconds();
    // Effective deadline: the earlier of the per-cell watchdog and
    // the whole-run deadline (0 = none).
    double deadline = 0.0;
    if (resilience_.cell_deadline_ms > 0)
        deadline = t0 + static_cast<double>(
                            resilience_.cell_deadline_ms) / 1e3;
    if (run_deadline > 0.0 &&
        (deadline == 0.0 || run_deadline < deadline))
        deadline = run_deadline;

    int attempt = 0;
    for (;;) {
        ++attempt;
        StopFlag stop(cancel_, deadline);
        if (stop.poll()) {
            out.status = stop.reason() == StopReason::Deadline
                             ? CellStatus::TimedOut
                             : CellStatus::Cancelled;
            break;
        }
        bool finished = false;
        try {
            if (fault_hook_)
                fault_hook_(index, attempt);
            cell.body(shard, &stop);
            // The latch is the validity contract: the result slot is
            // good iff the body never observed a stop. A cancel that
            // fires after the last poll leaves a completed cell.
            if (stop.stopped())
                out.status =
                    stop.reason() == StopReason::Deadline
                        ? CellStatus::TimedOut
                        : CellStatus::Cancelled;
            else
                out.status = CellStatus::Ok;
            finished = true;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        if (finished)
            break;
        out.status = CellStatus::Failed;
        if (static_cast<uint64_t>(attempt) >
            resilience_.retry_budget)
            break;
        if (cancel_ && cancel_->cancelled())
            break;
        // Exponential backoff, sliced so a cancel cuts it short.
        const int shift = std::min(attempt - 1, 20);
        uint64_t delay_ms = std::min<uint64_t>(
            resilience_.backoff_ms << shift, 10000);
        while (delay_ms > 0 &&
               !(cancel_ && cancel_->cancelled())) {
            const uint64_t slice = std::min<uint64_t>(delay_ms, 10);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            delay_ms -= slice;
        }
    }
    if (cell.release)
        cell.release();
    out.attempts = attempt;
    out.wall_ms = (monotonicSeconds() - t0) * 1e3;
    if (out.status == CellStatus::Ok && journal_ && cell.save) {
        JournalRecord rec;
        rec.index = index;
        rec.label = cell.label;
        rec.result = cell.save();
        journal_->appendRecord(rec);
    }
    if (on_outcome_)
        on_outcome_(index, out);
}

void
ExperimentEngine::run(TelemetryScope root)
{
    std::vector<Cell> cells = std::move(cells_);
    cells_.clear();
    // Pre-fill every outcome as Cancelled: a cell the cancel-aware
    // parallelFor never claims keeps exactly that status. Replayed
    // cells are Skipped up front (their slots are already loaded).
    outcomes_.assign(cells.size(), CellOutcome{});
    for (size_t i = 0; i < cells.size(); ++i) {
        outcomes_[i].label = cells[i].label;
        if (cells[i].replayed) {
            outcomes_[i].status = CellStatus::Skipped;
            if (on_outcome_)
                on_outcome_(i, outcomes_[i]);
        }
    }
    const double run_deadline =
        resilience_.run_deadline_ms > 0
            ? monotonicSeconds() +
                  static_cast<double>(resilience_.run_deadline_ms) /
                      1e3
            : 0.0;
    // One shard per job: shards merge into the root in job order, so
    // the exported telemetry is bit-identical at any RTM_THREADS.
    TelemetryShards shards(root, cells.size(), ring_capacity_);
    ThreadPool::global().parallelFor(
        cells.size(),
        [&](size_t i) {
            if (cells[i].replayed)
                return;
            runCell(cells[i], i, shards.shard(i), run_deadline);
        },
        cancel_);
    // A cell runCell saw has at least one attempt; release the
    // ones the cancel left unclaimed.
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].release && !cells[i].replayed &&
            outcomes_[i].attempts == 0)
            cells[i].release();
    shards.mergeIntoRoot();
    if (root) {
        uint64_t ok = 0, failed = 0, timed_out = 0, cancelled = 0,
                 replayed = 0;
        for (const CellOutcome &o : outcomes_) {
            switch (o.status) {
              case CellStatus::Ok: ++ok; break;
              case CellStatus::Failed: ++failed; break;
              case CellStatus::TimedOut: ++timed_out; break;
              case CellStatus::Cancelled: ++cancelled; break;
              case CellStatus::Skipped: ++replayed; break;
            }
        }
        Telemetry &t = *root.get();
        t.counter("experiment.cells_ok").add(ok);
        t.counter("experiment.cells_failed").add(failed);
        t.counter("experiment.cells_timed_out").add(timed_out);
        t.counter("experiment.cells_cancelled").add(cancelled);
        t.counter("experiment.cells_replayed").add(replayed);
    }
}

// --- spec ------------------------------------------------------------

bool
CampaignSpec::operator==(const CampaignSpec &o) const
{
    // CampaignConfig also carries the (non-spec) telemetry handle, so
    // the comparison walks the spec's field table instead.
    return sameFields(kCampaignFields, *this, o);
}

void
normalizeExperimentSpec(ExperimentSpec *spec)
{
    if (spec->matrix.workloads.empty())
        for (const WorkloadProfile &p : parsecProfiles())
            spec->matrix.workloads.push_back(p.name);
    if (spec->matrix.options.empty())
        spec->matrix.options = standardLlcOptions();
    if (spec->campaign.scenarios.empty())
        spec->campaign.scenarios = standardScenarios();
    if (spec->campaign.workloads.empty())
        spec->campaign.workloads = defaultCampaignWorkloads();
}

JsonValue
experimentSpecToJson(const ExperimentSpec &spec_in)
{
    ExperimentSpec spec = spec_in;
    normalizeExperimentSpec(&spec);
    return fieldsToJson(kExperimentFields, spec);
}

bool
experimentSpecFromJson(const JsonValue &doc, ExperimentSpec *spec,
                       std::string *diag)
{
    std::string local;
    std::string *d = diag ? diag : &local;
    d->clear();

    ExperimentSpec out;
    SpecReader top(doc, "", d);
    readObject(kExperimentFields, top, &out);
    if (!d->empty())
        return false;
    normalizeExperimentSpec(&out);
    *spec = std::move(out);
    return true;
}

bool
loadExperimentSpec(const std::string &path, ExperimentSpec *spec,
                   std::string *diag)
{
    JsonValue doc;
    if (!loadJsonFile(path, &doc, diag))
        return false;
    std::string parse_diag;
    if (!experimentSpecFromJson(doc, spec, &parse_diag)) {
        if (diag) {
            *diag = path + ": " + parse_diag;
            size_t pos = 0;
            // Prefix every diagnostic line with the file path.
            while ((pos = diag->find('\n', pos)) !=
                   std::string::npos) {
                diag->replace(pos, 1, "\n" + path + ": ");
                pos += path.size() + 3;
            }
        }
        return false;
    }
    return true;
}

std::string
experimentSpecHash(const ExperimentSpec &spec_in)
{
    // Output sinks and the resilience policy do not affect a single
    // result bit, so they are excluded from the resume identity.
    ExperimentSpec spec = spec_in;
    spec.metrics_path.clear();
    spec.trace_path.clear();
    spec.output_path.clear();
    spec.resilience = ResilienceSpec{};
    const std::string text = experimentSpecToJson(spec).dump(0);
    return sha256Hex(text.data(), text.size());
}

// --- expansion -------------------------------------------------------

std::string
ExperimentCell::label() const
{
    switch (kind) {
      case Kind::Matrix:
        return workload + "/" + option.label;
      case Kind::Campaign:
        return scenario.name + "/" + workload;
      case Kind::Stress:
        return "stress";
      case Kind::MonteCarlo:
        return "montecarlo";
    }
    return "?";
}

std::vector<ExperimentCell>
expandCells(const ExperimentSpec &spec_in)
{
    ExperimentSpec spec = spec_in;
    normalizeExperimentSpec(&spec);
    std::vector<ExperimentCell> cells;
    if (spec.matrix.enabled) {
        const size_t no = spec.matrix.options.size();
        for (size_t w = 0; w < spec.matrix.workloads.size(); ++w) {
            for (size_t o = 0; o < no; ++o) {
                ExperimentCell cell;
                cell.kind = ExperimentCell::Kind::Matrix;
                cell.local_index = w * no + o;
                cell.workload = spec.matrix.workloads[w];
                cell.option = spec.matrix.options[o];
                cells.push_back(std::move(cell));
            }
        }
    }
    if (spec.campaign.enabled) {
        const size_t nw = spec.campaign.workloads.size();
        for (size_t s = 0; s < spec.campaign.scenarios.size(); ++s) {
            for (size_t w = 0; w < nw; ++w) {
                ExperimentCell cell;
                cell.kind = ExperimentCell::Kind::Campaign;
                cell.local_index = s * nw + w;
                cell.workload = spec.campaign.workloads[w];
                cell.scenario = spec.campaign.scenarios[s];
                cells.push_back(std::move(cell));
            }
        }
    }
    if (spec.stress.enabled) {
        ExperimentCell cell;
        cell.kind = ExperimentCell::Kind::Stress;
        cell.local_index = 0;
        cells.push_back(std::move(cell));
    }
    if (spec.montecarlo.enabled) {
        ExperimentCell cell;
        cell.kind = ExperimentCell::Kind::MonteCarlo;
        cell.local_index = 0;
        cells.push_back(std::move(cell));
    }
    return cells;
}

// --- stress drill ----------------------------------------------------

bool
stressSchemeConfig(const std::string &token, Scheme *scheme,
                   PeccConfig *config)
{
    Scheme parsed;
    if (!schemeFromToken(token, &parsed) ||
        std::find(std::begin(kStressSchemes), std::end(kStressSchemes),
                  parsed) == std::end(kStressSchemes))
        return false;
    // The stripe drill shares one stripe between two ports; seg_len
    // is the caller's (the --lseg flag / stress.lseg).
    const PeccConfig &code = schemeRow(parsed).pecc;
    *scheme = parsed;
    config->num_segments = 2;
    config->correct = code.correct;
    config->variant = code.variant;
    config->window_ports = code.window_ports;
    return true;
}

StressResult
runStressDrill(const StressSpec &spec, TelemetryScope telemetry,
               StopFlag *stop)
{
    ScopedPhase drill_phase("experiment.stress");
    StressResult out;
    PeccConfig cfg;
    cfg.seg_len = spec.lseg;
    if (!stressSchemeConfig(spec.scheme, &out.scheme, &cfg))
        rtm_fatal("unknown stress scheme '%s'",
                  spec.scheme.c_str());
    out.pecc = cfg;

    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, spec.scale);
    ReliabilityModel analytic(&model, out.scheme);

    ProtectedStripe stripe(cfg, &model, Rng(spec.seed));
    stripe.initializeIdeal();

    // The del/ins drill judges silence against ground truth: a fixed
    // payload is loaded up front and every decoded readout compared
    // against it. (The positional drill below has no data path, so
    // it judges silence by residual offset instead.)
    std::vector<Bit> reference;
    if (cfg.variant == PeccVariant::DelIns) {
        const int bits = stripe.delInsCode()->payloadBits();
        for (int b = 0; b < bits; ++b)
            reference.push_back((b * 5 + 2) % 3 == 0 ? Bit::One
                                                     : Bit::Zero);
        stripe.loadPayload(reference);
    }

    Rng dice(spec.seed ^ 0xfeedbeef);
    LatencyHistogram *t_dist =
        telemetry ? &telemetry->histogram("faultsim.shift_distance",
                                          powerOfTwoEdges(64.0))
                  : nullptr;

    const int lseg = spec.lseg;
    for (uint64_t i = 0; i < spec.ops; ++i) {
        if (stop && (i & 255) == 0 && stop->poll())
            return out;
        int target = static_cast<int>(
            dice.uniformInt(static_cast<uint64_t>(lseg)));
        int cur_idx = lseg - 1 - stripe.believedOffset();
        int distance = std::abs(target - cur_idx);
        if (distance == 0)
            continue;
        out.distances.add(distance);

        // Accumulate the analytic expectation for this op. The
        // OverheadRegion variant decomposes into 1-step shifts.
        std::vector<int> parts =
            cfg.variant == PeccVariant::OverheadRegion
                ? std::vector<int>(static_cast<size_t>(distance), 1)
                : std::vector<int>{distance};
        ShiftReliability r = analytic.sequence(parts);
        out.exp_corrected += std::exp(r.log_corrected);
        out.exp_due += std::exp(r.log_due);
        out.exp_sdc += std::exp(r.log_sdc);

        // The del/ins scheme is exercised by what it actually
        // protects: a whole-stripe streaming readout (which also
        // realigns), not a positioned seek. The analytic expectation
        // above still uses the op's seek distance as its intensity,
        // matching how the LLC model charges the scheme.
        std::vector<Bit> got;
        ProtectedShiftResult res =
            cfg.variant == PeccVariant::DelIns
                ? stripe.readoutNow(&got)
                : stripe.seekIndex(target);
        if (telemetry) {
            t_dist->record(static_cast<double>(distance));
            if (res.detected)
                telemetry->event(EventKind::ErrorDetected, "stripe",
                                 i, static_cast<double>(distance));
        }
        if (res.unrecoverable) {
            ++out.due;
            if (telemetry)
                telemetry->event(EventKind::RecoveryRung, "due", i);
            stripe.initializeIdeal(); // rebuild and continue
            if (!reference.empty())
                stripe.loadPayload(reference);
            continue;
        }
        if (cfg.variant == PeccVariant::DelIns) {
            if (got != reference) {
                ++out.silent;
                stripe.initializeIdeal();
                stripe.loadPayload(reference);
            } else if (res.corrected) {
                ++out.corrected;
            } else {
                // A residual positionError() here is a latent offset
                // from the fallible return shift; the next readout
                // absorbs it as a burst at read index 0. The data
                // this op returned was exact, so the op is clean.
                ++out.clean;
            }
            continue;
        }
        if (res.corrected) {
            ++out.corrected;
        } else if (stripe.positionError() != 0) {
            ++out.silent;
            stripe.initializeIdeal(); // reset the silent drift
        } else {
            ++out.clean;
        }
    }

    if (telemetry) {
        Telemetry &t = *telemetry.get();
        t.counter("faultsim.ops").add(spec.ops);
        t.counter("faultsim.corrected").add(out.corrected);
        t.counter("faultsim.due").add(out.due);
        t.counter("faultsim.silent").add(out.silent);
        t.counter("faultsim.clean").add(out.clean);
        t.gauge("faultsim.scale").set(spec.scale);
        t.gauge("faultsim.expected_corrected").set(out.exp_corrected);
        t.gauge("faultsim.expected_due").set(out.exp_due);
        t.gauge("faultsim.expected_sdc").set(out.exp_sdc);
    }
    return out;
}

// --- montecarlo cell -------------------------------------------------

McRunResult
runMcCell(const McSpec &spec, TelemetryScope telemetry,
          StopFlag *stop)
{
    ScopedPhase mc_phase("experiment.mc");
    McTier tier = McTier::Exact;
    if (!mcTierFromToken(spec.tier, &tier))
        rtm_fatal("unknown montecarlo tier '%s'", spec.tier.c_str());
    McRunResult out;
    out.distance = spec.distance;
    out.tier = mcTierToken(tier);
    // Nominal device, seed and tier from the spec: the cell result
    // is a pure function of the section. Inside an engine job the
    // nested shard fan-out runs inline, so the determinism guarantee
    // of run()/fitModel() carries through the scheduler.
    PositionErrorMonteCarlo mc(DeviceParams{}, spec.seed, tier);
    mc.setTelemetry(telemetry);
    mc.setStopFlag(stop);
    ErrorPdf pdf = mc.run(spec.distance, spec.trials);
    out.trials = pdf.tallyTrials();
    out.deviation_mean = pdf.deviation.mean();
    out.deviation_stddev = pdf.deviation.stddev();
    out.step_prob_ok = pdf.stepProbability(0);
    out.step_prob_plus1 = pdf.stepProbability(1);
    out.step_prob_minus1 = pdf.stepProbability(-1);
    if (spec.fit_trials > 0) {
        out.has_fit = true;
        out.fit = mc.fitModel(spec.fit_trials).params();
    }
    return out;
}

// --- result serde ---------------------------------------------------

JsonValue
simResultToJson(const std::string &workload, const LlcOption &opt,
                const SimResult &r)
{
    SimResult keyed = r;
    keyed.workload = workload;
    keyed.llc_tech = opt.tech;
    keyed.scheme = opt.scheme;
    // "option" is not a SimResult field but sits right after
    // "workload"; the table's "workload" row then overwrites in place.
    JsonValue v = JsonValue::object();
    v.set("workload", workload);
    v.set("option", opt.label);
    emitFields(kSimResultFields, keyed, &v);
    return v;
}

bool
simResultFromJson(const JsonValue &doc, SimResult *out)
{
    return loadFields(kSimResultFields, doc, out);
}

namespace
{

/**
 * The result *sections* alone — the part of the document that must
 * be bit-identical between an uninterrupted run and a kill/resume
 * pair. experimentResultDigest hashes exactly this object.
 */
JsonValue
resultSectionsToJson(const ExperimentResult &result)
{
    const ExperimentSpec &spec = result.spec;
    JsonValue doc = JsonValue::object();
    if (result.has_matrix) {
        JsonValue m = JsonValue::object();
        m.set("workloads", stringArray(spec.matrix.workloads));
        m.set("options", listToJson(kOptionFields, spec.matrix.options));
        JsonValue results = JsonValue::array();
        for (const WorkloadMatrixRow &row : result.matrix)
            for (size_t o = 0; o < row.results.size(); ++o)
                results.push(simResultToJson(
                    row.profile.name, spec.matrix.options[o],
                    row.results[o]));
        m.set("results", std::move(results));
        doc.set("matrix", std::move(m));
    }
    if (result.has_campaign)
        doc.set("campaign", campaignResultToJson(result.campaign));
    if (result.has_stress)
        doc.set("stress", fieldsToJson(kStressResultFields,
                                       result.stress, kBriefView));
    if (result.has_mc)
        doc.set("montecarlo", fieldsToJson(kMcResultFields, result.mc));
    return doc;
}

} // anonymous namespace

// --- journal identity ------------------------------------------------

JournalHeader
makeJournalHeader(const ExperimentSpec &spec, size_t cells)
{
    JournalHeader header;
    header.name = spec.name;
    header.spec_sha256 = experimentSpecHash(spec);
    header.matrix_seed = spec.matrix.seed;
    header.campaign_seed = spec.campaign.config.seed;
    header.stress_seed = spec.stress.seed;
    header.mc_seed = spec.montecarlo.seed;
    header.cells = static_cast<uint64_t>(cells);
    return header;
}

std::string
journalResumeError(const JournalFile &journal,
                   const ExperimentSpec &spec, size_t cells)
{
    if (!journal.has_header)
        return "journal has no intact header record";
    const JournalHeader want = makeJournalHeader(spec, cells);
    const JournalHeader &have = journal.header;
    if (have.spec_sha256 != want.spec_sha256)
        return "journal belongs to a different spec (hash " +
               have.spec_sha256 + ", this run " + want.spec_sha256 +
               ")";
    auto seedMismatch = [](const char *what, uint64_t a,
                           uint64_t b) {
        return std::string("journal ") + what + " seed " +
               std::to_string(a) + " does not match this run's " +
               std::to_string(b);
    };
    if (have.matrix_seed != want.matrix_seed)
        return seedMismatch("matrix", have.matrix_seed,
                            want.matrix_seed);
    if (have.campaign_seed != want.campaign_seed)
        return seedMismatch("campaign", have.campaign_seed,
                            want.campaign_seed);
    if (have.stress_seed != want.stress_seed)
        return seedMismatch("stress", have.stress_seed,
                            want.stress_seed);
    if (have.mc_seed != want.mc_seed)
        return seedMismatch("montecarlo", have.mc_seed,
                            want.mc_seed);
    if (have.cells != want.cells)
        return "journal cell count " + std::to_string(have.cells) +
               " does not match this run's " +
               std::to_string(want.cells);
    return "";
}

// --- whole-spec runs -------------------------------------------------

ExperimentResult
runExperiment(const ExperimentSpec &spec_in,
              const PositionErrorModel *model,
              TelemetryScope telemetry, const RunControl &control)
{
    ScopedPhase run_phase("experiment.run");
    ExperimentResult res;
    res.spec = spec_in;
    normalizeExperimentSpec(&res.spec);
    const ExperimentSpec &spec = res.spec;

    ExperimentEngine engine;
    PaperCalibratedErrorModel default_model;
    const PositionErrorModel *matrix_model =
        model ? model : &default_model;

    if (spec.matrix.enabled) {
        res.has_matrix = true;
        std::vector<WorkloadProfile> profiles;
        profiles.reserve(spec.matrix.workloads.size());
        for (const std::string &name : spec.matrix.workloads)
            profiles.push_back(parsecProfile(name));
        appendMatrixJobs(engine, &res.matrix, profiles,
                         spec.matrix.options, matrix_model,
                         spec.matrix.requests, spec.matrix.warmup,
                         spec.matrix.divisor, spec.matrix.seed,
                         spec.protection);
    }
    if (spec.campaign.enabled) {
        res.has_campaign = true;
        engine.requestRingCapacity(
            spec.campaign.config.telemetry_ring_capacity);
        std::vector<WorkloadProfile> profiles;
        profiles.reserve(spec.campaign.workloads.size());
        for (const std::string &name : spec.campaign.workloads)
            profiles.push_back(parsecProfile(name));
        appendCampaignJobs(engine, &res.campaign,
                           spec.campaign.scenarios, profiles,
                           spec.campaign.config);
    }
    if (spec.stress.enabled) {
        res.has_stress = true;
        StressResult *slot = &res.stress;
        const StressSpec stress = spec.stress;
        ExperimentEngine::Cell cell;
        cell.label = "stress";
        cell.body = [slot, stress](TelemetryScope t,
                                   StopFlag *stop) {
            *slot = runStressDrill(stress, t, stop);
        };
        cell.save = [slot] {
            return fieldsToJson(kStressResultFields, *slot);
        };
        cell.load = [slot](const JsonValue &doc) {
            return loadFields(kStressResultFields, doc, slot);
        };
        engine.addCell(std::move(cell));
    }
    if (spec.montecarlo.enabled) {
        res.has_mc = true;
        McRunResult *slot = &res.mc;
        const McSpec mc = spec.montecarlo;
        ExperimentEngine::Cell cell;
        cell.label = "montecarlo";
        cell.body = [slot, mc](TelemetryScope t, StopFlag *stop) {
            *slot = runMcCell(mc, t, stop);
        };
        cell.save = [slot] {
            return fieldsToJson(kMcResultFields, *slot);
        };
        cell.load = [slot](const JsonValue &doc) {
            return loadFields(kMcResultFields, doc, slot);
        };
        engine.addCell(std::move(cell));
    }

    res.cells = engine.jobCount();
    engine.setCancelToken(control.cancel);
    engine.setResilience(spec.resilience);
    if (control.fault_hook)
        engine.setFaultHook(control.fault_hook);
    if (control.on_cell)
        engine.setOutcomeCallback(control.on_cell);

    // Resume: replay every intact journaled cell into its slot.
    // A record that fails to load (index drift, malformed payload)
    // is not fatal — the cell simply re-runs.
    std::vector<JournalRecord> replayed;
    if (!control.resume_path.empty()) {
        JournalFile journal;
        std::string error;
        if (!readJournal(control.resume_path, &journal, &error))
            rtm_fatal("--resume: %s", error.c_str());
        error = journalResumeError(journal, spec, res.cells);
        if (!error.empty())
            rtm_fatal("--resume %s: %s",
                      control.resume_path.c_str(), error.c_str());
        for (JournalRecord &record : journal.records) {
            if (engine.replayCell(
                    static_cast<size_t>(record.index),
                    record.result))
                replayed.push_back(std::move(record));
        }
    }

    // Checkpoint stream. Resuming into the same file appends after
    // the records just replayed; a fresh stream gets the header plus
    // re-emitted replayed records so it is self-contained.
    JournalWriter journal;
    if (!control.stream_path.empty()) {
        const bool append =
            control.stream_path == control.resume_path;
        std::string error;
        if (!journal.open(control.stream_path, append, &error))
            rtm_fatal("--stream-out: %s", error.c_str());
        if (!append) {
            journal.appendHeader(
                makeJournalHeader(spec, res.cells));
            for (const JournalRecord &record : replayed)
                journal.appendRecord(record);
        }
        engine.setJournal(&journal);
    }

    engine.run(telemetry);

    res.outcomes = engine.outcomes();
    for (const CellOutcome &outcome : res.outcomes) {
        switch (outcome.status) {
        case CellStatus::Ok: ++res.ok_cells; break;
        case CellStatus::Failed: ++res.failed_cells; break;
        case CellStatus::TimedOut: ++res.timed_out_cells; break;
        case CellStatus::Cancelled: ++res.cancelled_cells; break;
        case CellStatus::Skipped: ++res.replayed_cells; break;
        }
    }
    res.interrupted =
        res.cancelled_cells > 0 || res.timed_out_cells > 0;

    if (res.has_campaign)
        finalizeCampaignTotals(&res.campaign);

    if (journal.isOpen() && !journal.close())
        rtm_fatal("checkpoint journal '%s': write failed "
                  "(disk full?) — stream is not resumable",
                  control.stream_path.c_str());
    return res;
}

// --- result export ---------------------------------------------------

std::string
experimentResultDigest(const ExperimentResult &result)
{
    const std::string text = resultSectionsToJson(result).dump(0);
    return sha256Hex(text.data(), text.size());
}

JsonValue
experimentResultToJson(const ExperimentResult &result)
{
    const ExperimentSpec &spec = result.spec;
    JsonValue doc = JsonValue::object();
    doc.set("name", spec.name);
    doc.set("cells", static_cast<uint64_t>(result.cells));
    doc.set("spec", experimentSpecToJson(spec));
    JsonValue sections = resultSectionsToJson(result);
    const std::string text = sections.dump(0);
    doc.set("digest", sha256Hex(text.data(), text.size()));
    for (auto &member : sections.members())
        doc.set(member.first, member.second);

    JsonValue resilience = JsonValue::object();
    resilience.set("ok", result.ok_cells);
    resilience.set("failed", result.failed_cells);
    resilience.set("timed_out", result.timed_out_cells);
    resilience.set("cancelled", result.cancelled_cells);
    resilience.set("replayed", result.replayed_cells);
    resilience.set("interrupted", result.interrupted);
    JsonValue outcomes = JsonValue::array();
    for (size_t i = 0; i < result.outcomes.size(); ++i) {
        const CellOutcome &o = result.outcomes[i];
        if (o.status == CellStatus::Ok ||
            o.status == CellStatus::Skipped)
            continue;
        JsonValue entry = JsonValue::object();
        entry.set("index", static_cast<uint64_t>(i));
        entry.set("label", o.label);
        entry.set("status", cellStatusToken(o.status));
        if (!o.error.empty())
            entry.set("error", o.error);
        entry.set("attempts", o.attempts);
        outcomes.push(std::move(entry));
    }
    if (outcomes.size() > 0)
        resilience.set("outcomes", std::move(outcomes));
    doc.set("resilience", std::move(resilience));
    return doc;
}

bool
writeExperimentJson(const ExperimentResult &result,
                    const std::string &path)
{
    return saveJsonFile(path, experimentResultToJson(result));
}

} // namespace rtm
