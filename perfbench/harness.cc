/**
 * @file
 * Benchmark harness: runs one workload spec through runExperiment the
 * way `rtmsim run --spec` does (journal streaming and result JSON on)
 * and prints the raw host-time samples as one JSON line. run.py turns
 * the samples into the benchmark's metrics and gates.
 *
 *   perfbench_harness --spec FILE --workers N --seconds T
 *                     --trace 0|1 --out-dir DIR [--seed S]
 *
 * Untraced (--trace 0): one warm-up run at the spec's pinned seeds
 * (its digest is the correctness pin); then timed runs at the
 * workload seed until T seconds have passed, each after
 * kSetupsPerRep timed set-ups (spec load, validation, normalisation,
 * error model, thread-pool start) whose times are the set-up samples.
 *
 * Traced (--trace 1): the pinned run, one untraced run at N workers
 * and one at 1 worker at the workload seed, then the single-worker
 * layer ledger (layers.cc) checked against the untraced result.
 */

#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "device/error_model.hh"
#include "util/journal.hh"
#include "util/parallel.hh"

using namespace rtm;

namespace perfbench
{

double
wallSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

namespace
{

using namespace perfbench;

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/**
 * Load, validate and normalise a workload spec. With `seed`, every
 * section's seed is replaced by it (a held-out input); without, the
 * spec keeps its pinned seeds. Exits with status 2 on a bad spec.
 */
ExperimentSpec
loadWorkloadSpec(const std::string &path, std::optional<uint64_t> seed)
{
    ExperimentSpec spec;
    std::string diag;
    if (!loadExperimentSpec(path, &spec, &diag)) {
        std::fprintf(stderr, "perfbench: %s\n", diag.c_str());
        std::exit(2);
    }
    if (seed) {
        spec.matrix.seed = *seed;
        spec.campaign.config.seed = *seed;
        spec.stress.seed = *seed;
        spec.montecarlo.seed = *seed;
    }
    normalizeExperimentSpec(&spec);
    return spec;
}

/**
 * Simulated events of one run: requests (warmup included) for matrix
 * cells, controller accesses and stress ops for the fault sections,
 * trials for the Monte-Carlo section.
 */
uint64_t
specEvents(const ExperimentSpec &spec)
{
    uint64_t events = 0;
    if (spec.matrix.enabled)
        events += (spec.matrix.warmup + spec.matrix.requests) *
                  spec.matrix.workloads.size() *
                  spec.matrix.options.size();
    if (spec.campaign.enabled)
        events += spec.campaign.config.accesses_per_cell *
                  spec.campaign.scenarios.size() *
                  spec.campaign.workloads.size();
    if (spec.stress.enabled)
        events += spec.stress.ops;
    // fitModel draws trials_per_distance trials at each of its two
    // distances.
    if (spec.montecarlo.enabled)
        events += spec.montecarlo.trials +
                  2 * spec.montecarlo.fit_trials;
    return events;
}

/**
 * Set-ups timed before each timed run. One set-up takes about 0.1 ms,
 * mostly thread creation, so its median needs many samples. Taking
 * them between the runs spreads them over the whole measured window,
 * so a few ms of host activity cannot set the median.
 */
constexpr int kSetupsPerRep = 10;

struct Options
{
    std::string spec_path;
    std::string out_dir;
    unsigned workers = 4;
    double seconds = 10.0;
    bool trace = false;
    std::optional<uint64_t> seed;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--spec FILE --workers N --seconds T --trace 0|1 "
                 "--out-dir DIR [--seed S]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " wants a whole number").c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--spec")
            o.spec_path = value;
        else if (flag == "--out-dir")
            o.out_dir = value;
        else if (flag == "--workers")
            o.workers = static_cast<unsigned>(
                parseU64("--workers", value));
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(
                parseU64("--seconds", value));
        else if (flag == "--trace")
            o.trace = parseU64("--trace", value) != 0;
        else if (flag == "--seed")
            o.seed = parseU64("--seed", value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.spec_path.empty() || o.out_dir.empty())
        usage("--spec and --out-dir are required");
    if (o.workers < 1 || o.workers > 1024)
        usage("--workers must be in [1, 1024]");
    return o;
}

/** Everything runExperiment needs, built by one timed set-up. */
struct Setup
{
    ExperimentSpec spec;
    std::unique_ptr<PaperCalibratedErrorModel> model;
};

Setup
setUp(const std::string &spec_path, std::optional<uint64_t> seed,
      unsigned workers)
{
    Setup s;
    s.spec = loadWorkloadSpec(spec_path, seed);
    s.model = std::make_unique<PaperCalibratedErrorModel>();
    ThreadPool::setGlobalThreads(workers);
    return s;
}

/** One timed runExperiment call plus its result file and digest. */
struct Rep
{
    ExperimentResult result;
    JsonValue sample = JsonValue::object();
};

Rep
runRep(const Setup &s, const std::string &out_dir)
{
    RunControl control;
    control.stream_path = out_dir + "/journal.jsonl";
    const std::string result_path = out_dir + "/result.json";

    Rep rep;
    const double c0 = cpuSeconds();
    const double t0 = wallSeconds();
    rep.result = runExperiment(s.spec, s.model.get(), {}, control);
    const bool wrote = writeExperimentJson(rep.result, result_path);
    const std::string digest = experimentResultDigest(rep.result);
    const double wall = wallSeconds() - t0;
    const double cpu = cpuSeconds() - c0;

    const ExperimentResult &r = rep.result;
    JsonValue cell_ms = JsonValue::array();
    for (const CellOutcome &o : r.outcomes)
        cell_ms.push(o.wall_ms);
    rep.sample.set("wall_s", wall);
    rep.sample.set("cpu_s", cpu);
    rep.sample.set("digest", digest);
    rep.sample.set("complete", r.complete() && wrote);
    rep.sample.set("cells", static_cast<uint64_t>(r.cells));
    rep.sample.set("failed_cells", r.failed_cells + r.timed_out_cells +
                                       r.cancelled_cells +
                                       (wrote ? 0 : 1));
    rep.sample.set("cell_ms", std::move(cell_ms));
    return rep;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        size_t a = s.find_first_not_of(' ');
        size_t b = s.find_last_not_of(' ');
        if (a != std::string::npos)
            return s.substr(a, b - a + 1);
    }
#endif
    return "unknown";
}

JsonValue
machine(unsigned workers)
{
    JsonValue m = JsonValue::object();
    m.set("build_type", PERFBENCH_BUILD_TYPE);
    m.set("compiler", PERFBENCH_COMPILER);
    m.set("cpu_model", cpuModel());
    m.set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    m.set("workers", static_cast<int>(workers));
    return m;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Per-cell cost of the journal and of the result emit, measured on a
 * finished run: re-append every journaled record to a fresh journal,
 * and re-write the result JSON plus digest.
 */
void
timeEmit(const ExperimentResult &result, const std::string &out_dir,
         JsonValue *doc)
{
    const double t0 = wallSeconds();
    writeExperimentJson(result, out_dir + "/result_emit.json");
    experimentResultDigest(result); // rtmsim prints it after the write
    doc->set("emit_ms", (wallSeconds() - t0) * 1e3);

    JournalFile journal;
    std::string error;
    if (!readJournal(out_dir + "/journal.jsonl", &journal, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    JournalWriter writer;
    if (!writer.open(out_dir + "/journal_append.jsonl", false, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    writer.appendHeader(journal.header);
    const double t1 = wallSeconds();
    for (const JournalRecord &record : journal.records)
        writer.appendRecord(record);
    const double append_s = wallSeconds() - t1;
    writer.close();
    doc->set("journal_records",
             static_cast<uint64_t>(journal.records.size()));
    doc->set("journal_append_s", append_s);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    std::filesystem::create_directories(o.out_dir);

    JsonValue doc = JsonValue::object();
    doc.set("machine", machine(o.workers));

    // Warm-up run at the pinned seeds: its digest is the correctness
    // pin, and it absorbs the first-run page-fault and allocator
    // warm-up that would otherwise skew the first timed sample.
    {
        Setup s = setUp(o.spec_path, std::nullopt, o.workers);
        Rep pinned = runRep(s, o.out_dir);
        doc.set("pinned", pinned.sample);
    }

    if (!o.trace) {
        JsonValue setup_samples = JsonValue::array();
        auto timedSetUp = [&] {
            const double t0 = wallSeconds();
            Setup s = setUp(o.spec_path, o.seed, o.workers);
            setup_samples.push(wallSeconds() - t0);
            return s;
        };

        JsonValue reps = JsonValue::array();
        uint64_t events = 0;
        const double start = wallSeconds();
        constexpr int kMinReps = 3;
        for (int n = 0;
             n < kMinReps || wallSeconds() - start < o.seconds; ++n) {
            for (int k = 1; k < kSetupsPerRep; ++k)
                timedSetUp();
            Setup s = timedSetUp();
            events = specEvents(s.spec);
            reps.push(runRep(s, o.out_dir).sample);
        }
        doc.set("setup_s", std::move(setup_samples));
        doc.set("events", events);
        doc.set("reps", std::move(reps));
    } else {
        Setup s = setUp(o.spec_path, o.seed, o.workers);
        Rep untraced = runRep(s, o.out_dir);
        doc.set("events", specEvents(s.spec));
        doc.set("untraced", untraced.sample);
        timeEmit(untraced.result, o.out_dir, &doc);

        Setup serial = setUp(o.spec_path, o.seed, 1);
        Rep serial_rep = runRep(serial, o.out_dir);
        doc.set("untraced_1w", serial_rep.sample);

        JsonValue ledger;
        std::string error;
        if (!untraced.result.complete()) {
            std::fprintf(stderr, "perfbench: untraced run incomplete, "
                                 "no layer ledger\n");
            return 1;
        }
        if (!runLayerLedger(serial.spec, untraced.result, &ledger,
                            &error)) {
            std::fprintf(stderr, "perfbench: replay fidelity check "
                                 "failed: %s\n",
                         error.c_str());
            return 1;
        }
        doc.set("ledger", std::move(ledger));
    }
    doc.set("peak_rss_mb", peakRssMb());
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}
