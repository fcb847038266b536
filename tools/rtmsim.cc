/**
 * @file
 * rtmsim - the library's command-line front-end.
 *
 * Subcommands:
 *
 *   rtmsim run [options]       simulate a workload, trace, or spec
 *   rtmsim stress [options]    stripe-level fault-injection drill
 *   rtmsim campaign [options]  fault-scenario containment campaign
 *   rtmsim spec [options]      validate / expand an experiment spec
 *   rtmsim rates               print the position-error rate tables
 *   rtmsim plan [options]      show the planner's adapter table
 *   rtmsim stripe [options]    describe a protected stripe layout
 *   rtmsim help                this text
 *
 * run, stress and campaign share one path into the engine. The
 * --spec file (or the subcommand's base spec) is emitted as its
 * normalized spec document, every flag is a row that writes its
 * value at one document path, and the edited document is parsed
 * once by the spec validator (sim/experiment.hh) before runSpec
 * executes it. A bad flag value therefore gets the same dotted-path
 * diagnostic as a bad spec field ("matrix.divisor: must be >= 1")
 * and exit status 2. stress and campaign enable only their own
 * section of the spec.
 *
 * `run` flags (base spec: streamcluster on an RM p-ECC-S adaptive
 * LLC, 60000 requests, divisor 16, seed 42):
 *   --workload NAME   matrix.workloads = [NAME]
 *   --trace PATH      replay a text trace through the first matrix
 *                     option instead of running the spec
 *   --tech T          sram | sttram | rm | rm-ideal  (default rm)
 *   --scheme S        baseline | sed | secded | pecc-o | worst |
 *                     adaptive | lm-pos | del-ins-k (default adaptive)
 *                     --tech/--scheme replace matrix.options with
 *                     one "<tech> <scheme>" option
 *   --requests N      matrix.requests; the warmup follows at N/10
 *   --divisor D       matrix.divisor (capacity divisor)
 *   --seed N          matrix.seed
 *   --placement P     static | adaptive, on every option
 *   --placement-epoch N  accesses per placement epoch (every option)
 *   --swap-budget N   adaptive swaps per epoch (every option)
 *   --head-policy H   stay | return-home | center | predictive
 *   --protection P    uniform | two-tier | differentiated: replaces
 *                     the protection policy (two-tier = uniform +
 *                     EDC-first reads, differentiated = hot quarter
 *                     per-frame, cold 3/4 pooled two-tier codewords)
 *   --codeword-frames N  frames per codeword, 1|2|4|8 (under
 *                     `differentiated` it sizes the cold region)
 *   --mc-tier T / --mc-trials N   montecarlo.tier / .trials
 *
 * `stress` flags (base: the default stress section): runs a
 * protected stripe through randomized seeks at scaled error rates
 * and reconciles measured corrected/DUE/silent counts against the
 * closed-form ReliabilityModel, the check that licenses the
 * analytic model behind the paper's MTTF figures.
 *   --scheme S --scale X --ops N --lseg L --seed K    stress.*
 *
 * `campaign` flags (base: seed 31334, the standard scenario
 * catalogue, swaptions/canneal/ferret): each (scenario, workload)
 * cell drives a recovery-hardened controller plus a bank degradation
 * drill; exit 1 unless every cell contained its faults.
 *   --accesses N --seed K --scale S     campaign.*
 *   --budget R        campaign.recovery.retry_budget
 *   --workloads a,b,c campaign.workloads
 *
 * Shared by run, stress and campaign:
 *   --spec FILE.json  start from this ExperimentSpec (see
 *                     docs/ARCHITECTURE.md) instead of the base spec
 *   --out PATH        unified result JSON (spec "output")
 *   --metrics PATH    telemetry registry JSON (spec telemetry.metrics)
 *   --trace-out PATH  Chrome trace_event JSON (spec telemetry.trace);
 *                     open in chrome://tracing or Perfetto
 *   --stream-out P    checkpoint journal (default
 *                     `<out>.journal.jsonl`, "none" disables): each
 *                     completed cell is streamed as a CRC-framed
 *                     JSONL record, so SIGINT/SIGTERM (or a crash)
 *                     loses at most the cells in flight (exit 130)
 *   --resume P        replay completed cells from a journal written
 *                     by --stream-out and run only the rest; the
 *                     merged result is bit-identical to an
 *                     uninterrupted run
 *
 * `spec` options:
 *   --file FILE.json  spec to validate (default: built-in defaults)
 *   --out PATH        write the normalized spec back out
 *
 * `plan` options:
 *   --lseg N          segment length               (default 8)
 *   --intensity OPS   sustained ops/s for Dsafe    (default 83e6)
 *
 * `stripe` options:
 *   --segments N --lseg N --strength M --variant
 *   none|std|overhead|del-ins
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "codec/layout.hh"
#include "control/planner.hh"
#include "device/error_model.hh"
#include "mem/protection.hh"
#include "model/area.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "util/serde.hh"
#include "util/table.hh"

using namespace rtm;

namespace
{

/** Parse a CLI token through its enum's table; exit 2 if unknown. */
template <class E>
E
tokenOrExit(const std::string &s)
{
    E value{};
    if (!enumTokens(value).parse(s, &value)) {
        std::fprintf(stderr, "%s\n", enumTokens(value).unknown(s).c_str());
        std::exit(2);
    }
    return value;
}

ExperimentSpec
loadSpecOrExit(const std::string &path)
{
    ExperimentSpec spec;
    std::string diag;
    if (!loadExperimentSpec(path, &spec, &diag)) {
        std::fprintf(stderr, "%s\n", diag.c_str());
        std::exit(2);
    }
    return spec;
}

// --- flags as spec-document edits -------------------------------------

/**
 * Write `value` at the dotted `path` under `node`, creating missing
 * objects; a "[]" segment writes into every item of the array there.
 */
void
setAt(JsonValue *node, const std::string &path, const JsonValue &value)
{
    const size_t dot = path.find('.');
    const std::string key = path.substr(0, dot);
    if (dot == std::string::npos) {
        node->set(key, value);
        return;
    }
    const std::string rest = path.substr(dot + 1);
    if (key == "[]") {
        for (size_t i = 0; i < node->size(); ++i)
            setAt(&node->at(i), rest, value);
        return;
    }
    JsonValue *child = node->find(key);
    if (!child)
        child = &node->set(key, JsonValue::object());
    setAt(child, rest, value);
}

/** One flag: where in the spec document its value goes, and how. */
struct FlagRow
{
    const char *flag;
    const char *path; //!< dotted document path ("[]": every item)
    void (*apply)(JsonValue *doc, const FlagRow &row,
                  const CliFlags &flags);
};

/** A numeric flag's text as a JSON number; exit 2 otherwise. */
JsonValue
numberOrExit(const CliFlags &flags, const char *flag)
{
    const std::string text = flags.get(flag, "");
    JsonValue value;
    if (!JsonValue::parse(text, &value, nullptr) || !value.isNumber()) {
        std::fprintf(stderr, "--%s: expected a number, got '%s'\n",
                     flag, text.c_str());
        std::exit(2);
    }
    return value;
}

void
setNumber(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    setAt(doc, row.path, numberOrExit(flags, row.flag));
}

void
setText(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    setAt(doc, row.path, flags.get(row.flag, ""));
}

/** A one-name list. */
void
setItem(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    JsonValue list = JsonValue::array();
    list.push(flags.get(row.flag, ""));
    setAt(doc, row.path, list);
}

/** A comma-separated list. */
void
setCsv(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    JsonValue list = JsonValue::array();
    for (const std::string &item : splitCsv(flags.get(row.flag, "")))
        list.push(item);
    setAt(doc, row.path, list);
}

/**
 * --requests also drops matrix.warmup, so the validator re-derives
 * it as requests/10 and a shrunk run stays proportioned.
 */
void
setRequests(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    setNumber(doc, row, flags);
    doc->find("matrix")->erase("warmup");
}

/**
 * --tech/--scheme replace the option list with one option labelled
 * "<tech> <scheme>" by display name. An unknown token leaves the
 * label out; the validator reports the token.
 */
void
setOption(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    const std::string tech = flags.get("tech", "rm");
    const std::string scheme = flags.get("scheme", "adaptive");
    JsonValue option = JsonValue::object();
    MemTech t{};
    Scheme s{};
    if (enumTokens(t).parse(tech, &t) && enumTokens(s).parse(scheme, &s))
        option.set("label", std::string(memTechName(t)) + " " +
                                schemeName(s));
    option.set("tech", tech);
    option.set("scheme", scheme);
    JsonValue list = JsonValue::array();
    list.push(std::move(option));
    setAt(doc, row.path, list);
}

/**
 * --protection/--codeword-frames replace the protection object: a
 * uniform (or two-tier) domain of --codeword-frames frames, or what
 * differentiatedPolicy() emits, its pooled cold region resized when
 * --codeword-frames is above 1.
 */
void
setProtection(JsonValue *doc, const FlagRow &row, const CliFlags &flags)
{
    const std::string kind = flags.get("protection", "uniform");
    JsonValue policy = JsonValue::object();
    std::string frames_path = "uniform.codeword_frames";
    if (kind == "differentiated") {
        ExperimentSpec emitted;
        emitted.protection = differentiatedPolicy(8);
        policy = *experimentSpecToJson(emitted).find("protection");
        frames_path = "regions.[].codeword_frames";
    } else if (kind == "uniform" || kind == "two-tier") {
        setAt(&policy, "uniform.two_tier", kind == "two-tier");
    } else {
        std::fprintf(stderr,
                     "--protection: unknown protection '%s' (uniform | "
                     "two-tier | differentiated)\n",
                     kind.c_str());
        std::exit(2);
    }
    if (flags.has("codeword-frames")) {
        const JsonValue frames = numberOrExit(flags, "codeword-frames");
        if (kind != "differentiated" || frames.asDouble() > 1.0)
            setAt(&policy, frames_path, frames);
    }
    setAt(doc, row.path, policy);
}

/** Rows are applied in table order: an option list before its axes. */
constexpr FlagRow kRunRows[] = {
    {"workload", "matrix.workloads", setItem},
    {"tech", "matrix.options", setOption},
    {"scheme", "matrix.options", setOption},
    {"requests", "matrix.requests", setRequests},
    {"divisor", "matrix.divisor", setNumber},
    {"seed", "matrix.seed", setNumber},
    {"placement", "matrix.options.[].placement.policy", setText},
    {"placement-epoch", "matrix.options.[].placement.epoch", setNumber},
    {"swap-budget", "matrix.options.[].placement.swap_budget",
     setNumber},
    {"head-policy", "matrix.options.[].placement.head", setText},
    {"protection", "protection", setProtection},
    {"codeword-frames", "protection", setProtection},
    {"mc-tier", "montecarlo.tier", setText},
    {"mc-trials", "montecarlo.trials", setNumber},
};

constexpr FlagRow kStressRows[] = {
    {"scheme", "stress.scheme", setText},
    {"scale", "stress.scale", setNumber},
    {"ops", "stress.ops", setNumber},
    {"lseg", "stress.lseg", setNumber},
    {"seed", "stress.seed", setNumber},
};

constexpr FlagRow kCampaignRows[] = {
    {"accesses", "campaign.accesses", setNumber},
    {"seed", "campaign.seed", setNumber},
    {"scale", "campaign.scale", setNumber},
    {"budget", "campaign.recovery.retry_budget", setNumber},
    {"workloads", "campaign.workloads", setCsv},
};

/** The output sinks, shared by every engine subcommand. */
constexpr FlagRow kSinkRows[] = {
    {"out", "output", setText},
    {"metrics", "telemetry.metrics", setText},
    {"trace-out", "telemetry.trace", setText},
};

/** A subcommand that runs a spec on the engine. */
struct EngineCommand
{
    const char *name;
    /** The spec document used without --spec. */
    const char *base;
    /** The one section it enables (null: as the spec says). */
    const char *section;
    std::span<const FlagRow> rows;
};

constexpr EngineCommand kEngineCommands[] = {
    {"run",
     R"({"name": "run", "matrix": {"workloads": ["streamcluster"],
         "options": [{"tech": "rm", "scheme": "adaptive"}]}})",
     nullptr, kRunRows},
    {"stress",
     R"({"name": "stress-drill", "output": "BENCH_stress_drill.json"})",
     "stress", kStressRows},
    {"campaign",
     R"({"name": "fault-campaign", "campaign": {"seed": 31334},
         "output": "BENCH_fault_campaign.json"})",
     "campaign", kCampaignRows},
};

/**
 * The one way from the command line into the engine: the --spec
 * file (or the base spec) emitted as its normalized document, the
 * section scope, each given flag's row, then one pass through the
 * spec validator. Any diagnostic exits 2.
 */
ExperimentSpec
specFromFlags(const EngineCommand &cmd, const std::vector<FlagRow> &rows,
              const CliFlags &flags)
{
    ExperimentSpec spec;
    std::string diag;
    JsonValue doc;
    bool ok = flags.has("spec")
                  ? loadExperimentSpec(flags.get("spec", ""), &spec, &diag)
                  : JsonValue::parse(cmd.base, &doc, &diag) &&
                        experimentSpecFromJson(doc, &spec, &diag);
    if (ok) {
        doc = experimentSpecToJson(spec);
        if (cmd.section)
            for (const char *s :
                 {"matrix", "campaign", "stress", "montecarlo"})
                setAt(&doc, std::string(s) + ".enabled",
                      std::strcmp(s, cmd.section) == 0);
        for (const FlagRow &row : rows)
            if (flags.has(row.flag))
                row.apply(&doc, row, flags);
        ok = experimentSpecFromJson(doc, &spec, &diag);
    }
    if (!ok) {
        std::fprintf(stderr, "%s\n", diag.c_str());
        std::exit(2);
    }
    return spec;
}

// --- execution and reports -------------------------------------------

/** Signal-visible cancel source for spec runs (SIGINT/SIGTERM). */
CancelToken g_cancel;

/**
 * Resolve the checkpoint-stream path: an explicit --stream-out wins
 * ("none" disables), resuming defaults to appending the journal
 * being resumed, and otherwise the stream sits next to the result
 * JSON as `<out>.journal.jsonl`.
 */
std::string
resolveStreamPath(const CliFlags &flags,
                  const std::string &resume_path,
                  const std::string &out_path)
{
    if (flags.has("stream-out")) {
        const std::string path = flags.get("stream-out", "");
        return path == "none" ? "" : path;
    }
    if (!resume_path.empty())
        return resume_path;
    return out_path + ".journal.jsonl";
}

/** Export the telemetry sinks the spec names; false on I/O error. */
bool
writeTelemetry(const Telemetry &telemetry, const ExperimentSpec &spec)
{
    if (!spec.metrics_path.empty()) {
        if (!telemetry.writeMetricsJson(spec.metrics_path)) {
            std::fprintf(stderr, "cannot write metrics to '%s'\n",
                         spec.metrics_path.c_str());
            return false;
        }
        std::printf("metrics         %s\n", spec.metrics_path.c_str());
    }
    if (!spec.trace_path.empty()) {
        if (!telemetry.writeChromeTrace(spec.trace_path)) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         spec.trace_path.c_str());
            return false;
        }
        std::printf("trace           %s (chrome://tracing)\n",
                    spec.trace_path.c_str());
    }
    return true;
}

/** The single-simulation block (a one-cell matrix or a trace). */
void
printSimResult(const SimResult &r)
{
    char sdc[64], due[64];
    formatDuration(r.sdc_mttf, sdc, sizeof(sdc));
    formatDuration(r.due_mttf, due, sizeof(due));
    std::printf("workload        %s\n", r.workload.c_str());
    std::printf("llc             %s + %s\n",
                memTechName(r.llc_tech), schemeName(r.scheme));
    std::printf("instructions    %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("mem ops         %llu\n",
                static_cast<unsigned long long>(r.mem_ops));
    std::printf("cycles          %llu (%.3g s, IPC %.2f)\n",
                static_cast<unsigned long long>(r.cycles),
                r.seconds, r.ipc());
    std::printf("llc accesses    %llu (miss rate %.1f%%)\n",
                static_cast<unsigned long long>(r.llc_accesses),
                r.llc_accesses ? 100.0 * r.llc_misses /
                                     static_cast<double>(
                                         r.llc_accesses)
                               : 0.0);
    std::printf("shift ops       %llu (%llu steps, %llu cycles)\n",
                static_cast<unsigned long long>(r.shift_ops),
                static_cast<unsigned long long>(r.shift_steps),
                static_cast<unsigned long long>(r.shift_cycles));
    std::printf("shifts/access   %.3f\n", r.shiftsPerAccess());
    if (r.migrations)
        std::printf("migrations      %llu (%llu steps)\n",
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(
                        r.migration_steps));
    if (r.redundancy_accesses)
        std::printf("redundancy      %llu accesses (%llu steps)\n",
                    static_cast<unsigned long long>(
                        r.redundancy_accesses),
                    static_cast<unsigned long long>(
                        r.redundancy_steps));
    std::printf("energy          %.3g J dynamic, %.3g J shift, "
                "%.3g J leakage, %.3g J DRAM\n",
                r.cache_dynamic_energy, r.llc_shift_energy,
                r.leakage_energy, r.dram_energy);
    std::printf("SDC MTTF        %s\n", sdc);
    std::printf("DUE MTTF        %s\n", due);
}

void
printMatrix(const MatrixSpec &spec,
            const std::vector<WorkloadMatrixRow> &rows)
{
    if (rows.size() == 1 && rows[0].results.size() == 1) {
        printSimResult(rows[0].results[0]);
        std::printf("\n");
        return;
    }
    TextTable t({"option", "geomean runtime (s)",
                 "geomean energy (J)"});
    for (size_t o = 0; o < spec.options.size(); ++o) {
        std::vector<double> secs, energy;
        for (const WorkloadMatrixRow &row : rows) {
            secs.push_back(row.results[o].seconds);
            energy.push_back(row.results[o].totalEnergy());
        }
        t.addRow({spec.options[o].label,
                  TextTable::num(geomean(secs)),
                  TextTable::num(geomean(energy))});
    }
    t.print(stdout);
    std::printf("\n");
}

/** Per-cell containment table. */
void
printCampaign(const CampaignSpec &spec, const CampaignResult &result)
{
    const CampaignConfig &config = spec.config;
    std::printf("fault campaign: %zu scenarios x %zu workloads, "
                "%llu accesses/cell, rates x%.0f, retry budget %d\n\n",
                spec.scenarios.size(), spec.workloads.size(),
                static_cast<unsigned long long>(
                    config.accesses_per_cell),
                config.scale, config.recovery.retry_budget);
    TextTable t({"scenario", "workload", "injected", "detected",
                 "corrected", "ladder", "DUE", "SDC", "degr.cap",
                 "contained"});
    for (const CampaignCellResult &c : result.cells) {
        const CampaignLedger &l = c.ledger;
        t.addRow({c.scenario, c.workload,
                  TextTable::integer(
                      static_cast<long long>(l.injected_faults)),
                  TextTable::integer(
                      static_cast<long long>(l.detected)),
                  TextTable::integer(
                      static_cast<long long>(l.corrected)),
                  TextTable::integer(static_cast<long long>(
                      l.recovered_retry + l.recovered_realign +
                      l.recovered_scrub)),
                  TextTable::integer(static_cast<long long>(l.due)),
                  TextTable::integer(static_cast<long long>(l.sdc)),
                  TextTable::fixed(c.degraded_capacity_fraction, 3),
                  c.contained ? "yes" : c.violation});
    }
    t.print(stdout);
    std::printf("\n%llu/%zu cells contained\n\n",
                static_cast<unsigned long long>(
                    result.contained_cells),
                result.cells.size());
}

/** Measured outcomes against the closed-form expectation. */
void
printStress(const StressSpec &spec, const StressResult &r)
{
    std::printf("stress drill: %s, rates x%.0f, %llu ops, Lseg %d\n\n",
                schemeName(r.scheme), spec.scale,
                static_cast<unsigned long long>(spec.ops), spec.lseg);
    TextTable t({"outcome", "measured", "analytic expectation",
                 "ratio"});
    auto row = [&](const char *name, uint64_t got, double want) {
        double ratio = want > 0
                           ? static_cast<double>(got) / want
                           : (got == 0 ? 1.0 : INFINITY);
        t.addRow({name,
                  TextTable::integer(static_cast<long long>(got)),
                  TextTable::fixed(want, 1),
                  TextTable::fixed(ratio, 2)});
    };
    row("corrected", r.corrected, r.exp_corrected);
    row("DUE", r.due, r.exp_due);
    row("silent", r.silent, r.exp_sdc);
    t.print(stdout);
    std::printf("\nclean ops: %llu; mean shift distance %.2f\n",
                static_cast<unsigned long long>(r.clean),
                r.distances.mean());
    std::printf("ratios near 1.00 validate the closed-form "
                "reliability model against the functional stack; "
                "the paper-scale MTTF figures rest on exactly that "
                "model evaluated at the unscaled rates.\n\n");
}

void
printMc(const McRunResult &m)
{
    std::printf("montecarlo (%s tier): distance %d, %llu "
                "trials, dev %.4g +/- %.4g, P(+1) %.3g\n",
                m.tier.c_str(), m.distance,
                static_cast<unsigned long long>(m.trials),
                m.deviation_mean, m.deviation_stddev,
                m.step_prob_plus1);
    if (m.has_fit)
        std::printf("montecarlo fit: sigma %.4g, rho %.3f, "
                    "drift %.4g\n",
                    m.fit.sigma_step, m.fit.resync_rho, m.fit.drift);
}

/**
 * Uniform epilogue for crash-safe spec runs: outcome summary,
 * resume hint, and the exit status convention (130 interrupted, 1
 * on contained-but-failed cells).
 */
int
resilienceEpilogue(const ExperimentResult &result,
                   const std::string &stream_path, int exit_code)
{
    if (result.failed_cells || result.timed_out_cells ||
        result.cancelled_cells || result.replayed_cells) {
        std::printf("cells           %llu ok, %llu replayed, "
                    "%llu failed, %llu timed out, %llu cancelled\n",
                    static_cast<unsigned long long>(
                        result.ok_cells),
                    static_cast<unsigned long long>(
                        result.replayed_cells),
                    static_cast<unsigned long long>(
                        result.failed_cells),
                    static_cast<unsigned long long>(
                        result.timed_out_cells),
                    static_cast<unsigned long long>(
                        result.cancelled_cells));
    }
    for (const CellOutcome &o : result.outcomes) {
        if (o.status == CellStatus::Failed)
            std::fprintf(stderr, "cell '%s' failed after %d "
                         "attempt(s): %s\n",
                         o.label.c_str(), o.attempts,
                         o.error.c_str());
    }
    if (result.interrupted) {
        if (!stream_path.empty())
            std::fprintf(stderr,
                         "interrupted — resume with "
                         "--resume %s\n", stream_path.c_str());
        else
            std::fprintf(stderr, "interrupted — no checkpoint "
                         "stream was active\n");
        return 130;
    }
    if (result.failed_cells)
        return 1;
    return exit_code;
}

/** The one executor: run the spec, print each section, write sinks. */
int
runSpec(const ExperimentSpec &spec, const CliFlags &flags)
{
    Telemetry telemetry(1 << 15);
    TelemetryScope scope;
    if (!spec.metrics_path.empty() || !spec.trace_path.empty())
        scope = &telemetry;

    const std::string out_path = spec.output_path.empty()
                                     ? "rtmsim_experiment.json"
                                     : spec.output_path;
    RunControl control;
    control.cancel = &g_cancel;
    control.resume_path = flags.get("resume", "");
    control.stream_path =
        resolveStreamPath(flags, control.resume_path, out_path);
    installCancelOnSignals(&g_cancel);
    ExperimentResult result =
        runExperiment(spec, nullptr, scope, control);
    installCancelOnSignals(nullptr);

    std::printf("experiment '%s': %zu cells\n\n",
                spec.name.c_str(), result.cells);
    // Section summaries read every cell slot, so they are only
    // meaningful when every cell completed (or was replayed); an
    // interrupted run still writes its report + journal below.
    if (result.complete()) {
        if (result.has_matrix)
            printMatrix(spec.matrix, result.matrix);
        if (result.has_campaign)
            printCampaign(spec.campaign, result.campaign);
        if (result.has_stress)
            printStress(spec.stress, result.stress);
        if (result.has_mc)
            printMc(result.mc);
    }

    if (!writeExperimentJson(result, out_path)) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("report          %s\n", out_path.c_str());
    std::printf("digest          %s\n",
                experimentResultDigest(result).c_str());
    if (!writeTelemetry(telemetry, spec))
        return 1;
    int exit_code = 0;
    if (result.has_campaign && result.complete() &&
        !result.campaign.allContained()) {
        std::fprintf(stderr, "containment FAILED\n");
        exit_code = 1;
    }
    return resilienceEpilogue(result, control.stream_path,
                              exit_code);
}

/**
 * `run --trace`: replay a trace file (no spec key names one) through
 * the validated document's first matrix option.
 */
int
runTrace(const ExperimentSpec &spec, const std::string &path)
{
    const MatrixSpec &m = spec.matrix;
    SimConfig cfg = matrixCellConfig(m.options[0], m.requests,
                                     m.warmup, m.divisor, m.seed,
                                     spec.protection);
    Telemetry telemetry(1 << 15);
    if (!spec.metrics_path.empty() || !spec.trace_path.empty())
        cfg.telemetry = &telemetry;
    PaperCalibratedErrorModel model;
    printSimResult(simulateTrace(path, loadTraceFile(path), cfg, &model));
    return writeTelemetry(telemetry, spec) ? 0 : 1;
}

int
cmdEngine(const EngineCommand &cmd, int argc, char **argv)
{
    std::vector<FlagRow> rows(cmd.rows.begin(), cmd.rows.end());
    rows.insert(rows.end(), std::begin(kSinkRows), std::end(kSinkRows));
    std::vector<std::string> allowed = {"spec", "stream-out", "resume"};
    if (std::strcmp(cmd.name, "run") == 0)
        allowed.push_back("trace"); // an input file, not a spec value
    for (const FlagRow &row : rows)
        allowed.push_back(row.flag);
    CliFlags flags = CliFlags::parseOrExit(argc, argv, 2, allowed);

    const ExperimentSpec spec = specFromFlags(cmd, rows, flags);
    if (flags.has("trace"))
        return runTrace(spec, flags.get("trace", ""));
    return runSpec(spec, flags);
}

int
cmdSpec(int argc, char **argv)
{
    CliFlags flags =
        CliFlags::parseOrExit(argc, argv, 2, {"file", "out"});
    ExperimentSpec spec;
    if (flags.has("file"))
        spec = loadSpecOrExit(flags.get("file", ""));
    else
        normalizeExperimentSpec(&spec);

    std::vector<ExperimentCell> cells = expandCells(spec);
    size_t matrix = 0, campaign = 0, stress = 0, mc = 0;
    for (const ExperimentCell &c : cells) {
        switch (c.kind) {
          case ExperimentCell::Kind::Matrix: ++matrix; break;
          case ExperimentCell::Kind::Campaign: ++campaign; break;
          case ExperimentCell::Kind::Stress: ++stress; break;
          case ExperimentCell::Kind::MonteCarlo: ++mc; break;
        }
    }
    std::printf("spec '%s': %zu cells (%zu matrix, %zu campaign, "
                "%zu stress, %zu montecarlo)\n",
                spec.name.c_str(), cells.size(), matrix, campaign,
                stress, mc);
    if (flags.has("out")) {
        const std::string out = flags.get("out", "");
        if (!saveJsonFile(out, experimentSpecToJson(spec))) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out.c_str());
            return 1;
        }
        std::printf("normalized spec: %s\n", out.c_str());
    } else {
        std::printf("%s\n",
                    experimentSpecToJson(spec).dump().c_str());
    }
    return 0;
}

int
cmdRates()
{
    PaperCalibratedErrorModel model;
    TextTable t({"distance", "P(+-1)", "P(+-2)", "P(+-3)"});
    for (int d = 1; d <= 16; ++d) {
        t.addRow({TextTable::integer(d),
                  TextTable::num(model.stepErrorRate(d, 1)),
                  TextTable::num(model.stepErrorRate(d, 2)),
                  TextTable::num(model.stepErrorRate(d, 3))});
    }
    t.print(stdout);
    std::printf("\n(distances beyond 7 are power-law "
                "extrapolations of the paper's Table 2)\n");
    return 0;
}

int
cmdPlan(int argc, char **argv)
{
    CliFlags flags = CliFlags::parseOrExit(argc, argv, 2,
                                           {"lseg", "intensity"});
    int lseg = flags.getInt("lseg", 8);
    double intensity = flags.getDouble("intensity", 83e6);
    PaperCalibratedErrorModel model;
    StsTiming timing(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    ShiftPlanner planner(&model, timing, 1, lseg - 1);
    std::printf("safe distance at %.3g ops/s: %d\n\n", intensity,
                planner.safeDistance(intensity));
    for (int d = 1; d <= lseg - 1; ++d) {
        std::printf("distance %d:\n", d);
        TextTable t({"min interval (cyc)", "sequence",
                     "latency (cyc)", "fail rate"});
        for (const auto &plan : planner.paretoFront(d)) {
            std::string seq;
            for (size_t i = plan.parts.size(); i-- > 0;) {
                seq += std::to_string(plan.parts[i]);
                if (i)
                    seq += ",";
            }
            t.addRow({TextTable::integer(static_cast<long long>(
                          plan.min_interval)),
                      seq,
                      TextTable::integer(static_cast<long long>(
                          plan.latency)),
                      TextTable::num(
                          std::exp(plan.log_fail_rate))});
        }
        t.print(stdout);
        std::printf("\n");
    }
    return 0;
}

int
cmdStripe(int argc, char **argv)
{
    CliFlags flags = CliFlags::parseOrExit(
        argc, argv, 2, {"segments", "lseg", "strength", "variant"});
    PeccConfig c;
    c.num_segments = flags.getInt("segments", 8);
    c.seg_len = flags.getInt("lseg", 8);
    c.correct = flags.getInt("strength", 1);
    const std::string variant = flags.get("variant", "std");
    c.variant = tokenOrExit<PeccVariant>(variant);
    PeccLayout lay = computeLayout(c);
    AreaModel area;
    std::printf("stripe: %d segments x %d domains, m = %d (%s)\n",
                c.num_segments, c.seg_len, c.correct,
                variant.c_str());
    std::printf("  data domains        %d\n", c.dataDomains());
    std::printf("  extra domains       %d (paper accounting)\n",
                lay.extraDomains());
    std::printf("  extra read ports    %d\n", lay.extraReadPorts());
    std::printf("  extra write ports   %d\n",
                lay.extraWritePorts());
    std::printf("  storage overhead    %.1f%%\n",
                100.0 * lay.storageOverhead());
    std::printf("  area per data bit   %.2f F^2\n",
                area.areaPerDataBit(c));
    std::printf("  functional wire     %d slots\n", lay.wire_len);
    return 0;
}

void
usage()
{
    std::printf(
        "rtmsim - racetrack memory simulator (ISCA'15 'Hi-fi "
        "Playback' reproduction)\n\n"
        "  rtmsim run [--workload N|--trace P] [--tech T] "
        "[--scheme S]\n"
        "             [--requests N] [--divisor D] [--seed N]\n"
        "             [--placement static|adaptive] "
        "[--placement-epoch N]\n"
        "             [--swap-budget N] "
        "[--head-policy stay|return-home|center|predictive]\n"
        "             [--protection uniform|two-tier|"
        "differentiated] [--codeword-frames 1|2|4|8]\n"
        "             [--mc-tier exact|fast] [--mc-trials N]\n"
        "  rtmsim stress [--scheme secded|sed|baseline|pecc-o|lm-pos|"
        "del-ins-k]\n"
        "             [--scale S] [--ops N] [--lseg L] [--seed K]\n"
        "  rtmsim campaign [--accesses N] [--seed K] [--scale S] "
        "[--budget R]\n"
        "             [--workloads a,b,c]\n"
        "    run, stress and campaign also take: [--spec FILE.json] "
        "[--out OUT.json]\n"
        "             [--metrics OUT.json] [--trace-out OUT.json]\n"
        "             [--stream-out J.jsonl|none] "
        "[--resume J.jsonl]\n"
        "  rtmsim spec [--file FILE.json] [--out OUT.json]\n"
        "  rtmsim rates\n"
        "  rtmsim plan [--lseg N] [--intensity OPS]\n"
        "  rtmsim stripe [--segments N] [--lseg N] [--strength M] "
        "[--variant none|std|overhead|del-ins]\n"
        "  rtmsim help\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    for (const EngineCommand &engine : kEngineCommands)
        if (cmd == engine.name)
            return cmdEngine(engine, argc, argv);
    if (cmd == "spec")
        return cmdSpec(argc, argv);
    if (cmd == "rates")
        return cmdRates();
    if (cmd == "plan")
        return cmdPlan(argc, argv);
    if (cmd == "stripe")
        return cmdStripe(argc, argv);
    usage();
    return cmd == "help" ? 0 : 2;
}
