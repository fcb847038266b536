/**
 * @file
 * google-benchmark micro-timings of the hot simulator operations:
 * cyclic decode, protected shift, planner lookup, cache access, and
 * LLC shift-engine access. These guard the simulator's own
 * performance (the workload matrices run millions of these).
 *
 * After the registered benchmarks, main() times the parallelised hot
 * loops — the batched Monte-Carlo kernel at both reproducibility
 * tiers against the frozen scalar reference, and runMatrix — at
 * thread counts {1, hw/2, hw}, writing one row per count (with the
 * pool's *actual* worker count; each entry the median of five runs
 * with its min/max) to BENCH_parallel.json so the perf trajectory is
 * tracked across PRs.
 *
 * `micro_ops --check` skips the timing benchmarks and instead
 * verifies the tier contract, mirroring sim_hotpath's conventions:
 * exit 2 when the exact tier diverges from the scalar reference (or
 * the fast tier is unstable across seeds/thread counts), exit 1 when
 * the batched kernel fails to beat the scalar path.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "codec/combined.hh"
#include "codec/protected_stripe.hh"
#include "control/fsm.hh"
#include "control/planner.hh"
#include "mem/cache.hh"
#include "device/montecarlo.hh"
#include "mem/rm_bank.hh"
#include "sim/runner.hh"
#include "util/parallel.hh"

namespace rtm
{
namespace
{

void
BM_CyclicDecode(benchmark::State &state)
{
    CyclicCode code(2);
    int obs = 1;
    for (auto _ : state) {
        DecodeResult r = code.decode(obs, 3, 1);
        benchmark::DoNotOptimize(r);
        obs = (obs + 1) & 3;
    }
}
BENCHMARK(BM_CyclicDecode);

void
BM_ProtectedShift(benchmark::State &state)
{
    ZeroErrorModel model;
    PeccConfig c;
    c.num_segments = 8;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    ProtectedStripe ps(c, &model, Rng(1));
    ps.initializeIdeal();
    int idx = 0;
    for (auto _ : state) {
        auto r = ps.seekIndex(idx);
        benchmark::DoNotOptimize(r);
        idx = (idx + 3) & 7;
    }
}
BENCHMARK(BM_ProtectedShift);

void
BM_PlannerLookup(benchmark::State &state)
{
    PaperCalibratedErrorModel model;
    StsTiming timing(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    ShiftPlanner planner(&model, timing, 1, 7);
    Cycles interval = 1;
    for (auto _ : state) {
        const SequencePlan &p = planner.planFor(7, interval);
        benchmark::DoNotOptimize(&p);
        interval = (interval * 7 + 3) % 1000;
    }
}
BENCHMARK(BM_PlannerLookup);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(1 << 20, 16);
    Addr addr = 0;
    for (auto _ : state) {
        auto r = cache.access(addr, false);
        benchmark::DoNotOptimize(r);
        addr = (addr * 2654435761u + 64) & ((1 << 24) - 1);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_RmBankAccess(benchmark::State &state)
{
    PaperCalibratedErrorModel model;
    RmBankConfig cfg;
    cfg.line_frames = 1 << 16;
    cfg.scheme = Scheme::PeccSAdaptive;
    RmBank bank(cfg, &model, racetrackL3());
    uint64_t frame = 1;
    Cycles now = 0;
    for (auto _ : state) {
        auto r = bank.accessFrame(frame & 0xffff, now);
        benchmark::DoNotOptimize(r);
        frame = frame * 29 + 7;
        now += 40;
    }
}
BENCHMARK(BM_RmBankAccess);

void
BM_HammingEncodeDecode(benchmark::State &state)
{
    HammingSecded code;
    uint64_t data = 0x0123456789abcdefull;
    for (auto _ : state) {
        uint8_t check = code.encode(data);
        BeccDecode d = code.decode(data ^ 1, check);
        benchmark::DoNotOptimize(d);
        data = data * 6364136223846793005ull + 1;
    }
}
BENCHMARK(BM_HammingEncodeDecode);

void
BM_ProtectedLineRead(benchmark::State &state)
{
    ZeroErrorModel model;
    PeccConfig c;
    c.num_segments = 1;
    c.seg_len = 8;
    c.correct = 1;
    c.variant = PeccVariant::Standard;
    ProtectedLine line(c, &model, Rng(1));
    line.initialize();
    for (int i = 0; i < 8; ++i)
        line.write(i, 0x1111111111111111ull * i);
    int idx = 0;
    for (auto _ : state) {
        LineReadResult r = line.read(idx);
        benchmark::DoNotOptimize(r);
        idx = (idx + 3) & 7;
    }
}
BENCHMARK(BM_ProtectedLineRead);

void
BM_ControllerFsm(benchmark::State &state)
{
    StsTiming timing(kDefaultClockHz, 0.4e-9, 1.0e-9, 0.34e-9);
    ShiftFsm fsm(timing);
    for (auto _ : state) {
        Cycles c = fsm.run(7);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_ControllerFsm);

void
BM_MonteCarloTrial(benchmark::State &state)
{
    DeviceParams params;
    PositionErrorMonteCarlo mc(params, 5);
    Rng rng(7);
    for (auto _ : state) {
        double d = mc.simulateDeviation(7, rng);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_MonteCarloTrial);

void
BM_StepJitterRecompute(benchmark::State &state)
{
    // The eight RK4 stepTime evaluations the seed paid on *every*
    // trial before the result was hoisted into the constructor.
    DeviceParams params;
    PositionErrorMonteCarlo mc(params, 5);
    for (auto _ : state) {
        double j = mc.computeStepJitter();
        benchmark::DoNotOptimize(j);
    }
}
BENCHMARK(BM_StepJitterRecompute);

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Batched-kernel trials/second of run(7, trials) at one tier. */
double
mcTrialsPerSec(unsigned threads, uint64_t trials, McTier tier)
{
    ThreadPool::setGlobalThreads(threads);
    PositionErrorMonteCarlo mc(DeviceParams{}, 5, tier);
    double t0 = now_seconds();
    ErrorPdf pdf = mc.run(7, trials);
    double dt = now_seconds() - t0;
    benchmark::DoNotOptimize(pdf);
    return static_cast<double>(trials) / dt;
}

/** Frozen scalar-reference trials/second at a thread count. */
double
mcScalarTrialsPerSec(unsigned threads, uint64_t trials)
{
    ThreadPool::setGlobalThreads(threads);
    PositionErrorMonteCarlo mc(DeviceParams{}, 5);
    double t0 = now_seconds();
    ErrorPdf pdf = mc.runScalarReference(7, trials);
    double dt = now_seconds() - t0;
    benchmark::DoNotOptimize(pdf);
    return static_cast<double>(trials) / dt;
}

/** Seed-baseline trials/second: per-trial jitter recompute + trial. */
double
seedBaselineTrialsPerSec(uint64_t trials)
{
    PositionErrorMonteCarlo mc(DeviceParams{}, 5);
    Rng rng(7);
    double t0 = now_seconds();
    for (uint64_t i = 0; i < trials; ++i) {
        double j = mc.computeStepJitter();
        benchmark::DoNotOptimize(j);
        double d = mc.simulateDeviation(7, rng);
        benchmark::DoNotOptimize(d);
    }
    double dt = now_seconds() - t0;
    return static_cast<double>(trials) / dt;
}

/** runMatrix wall-clock at a thread count (small 2-option sweep). */
double
runMatrixSeconds(unsigned threads)
{
    ThreadPool::setGlobalThreads(threads);
    PaperCalibratedErrorModel model;
    std::vector<LlcOption> options = {
        {"Baseline", MemTech::Racetrack, Scheme::Baseline},
        {"p-ECC-S adaptive", MemTech::Racetrack,
         Scheme::PeccSAdaptive},
    };
    double t0 = now_seconds();
    auto rows = runMatrix(options, &model, 3000, 500, 32);
    double dt = now_seconds() - t0;
    benchmark::DoNotOptimize(rows);
    return dt;
}

/** Exact equality of two ErrorPdfs, bit-for-bit. */
bool
pdfsIdentical(const ErrorPdf &a, const ErrorPdf &b)
{
    return a.distance == b.distance && a.trials == b.trials &&
           a.step_counts.entries() == b.step_counts.entries() &&
           a.middle_counts.entries() == b.middle_counts.entries() &&
           a.deviation.count() == b.deviation.count() &&
           a.deviation.mean() == b.deviation.mean() &&
           a.deviation.stddev() == b.deviation.stddev();
}

/**
 * Tier-contract verification (--check).
 *
 * Exit 2 on any divergence: exact-tier run() must be bit-identical
 * to the frozen scalar reference at every trial count (including
 * non-granule tails), batch gaussian fills must replay the scalar
 * draw sequence element-for-element, and the fast tier must be
 * bit-stable across repeated runs and thread counts. Exit 1 when
 * the batched kernel is not faster than the scalar reference.
 */
int
checkTiers()
{
    // 1. Exact tier == scalar reference, bit for bit, at awkward
    //    trial counts (sub-batch, over-batch, prime tails).
    for (uint64_t trials : {uint64_t(1), uint64_t(200),
                            uint64_t(4097), uint64_t(100003)}) {
        PositionErrorMonteCarlo batch(DeviceParams{}, 5,
                                      McTier::Exact);
        PositionErrorMonteCarlo scalar(DeviceParams{}, 5);
        ErrorPdf a = batch.run(7, trials);
        ErrorPdf b = scalar.runScalarReference(7, trials);
        if (!pdfsIdentical(a, b)) {
            std::fprintf(stderr,
                         "FATAL: exact tier diverged from scalar "
                         "reference at %llu trials\n",
                         static_cast<unsigned long long>(trials));
            return 2;
        }
    }
    std::printf("check: exact tier == scalar reference\n");

    // 2. fillGaussian replays gaussian() element-for-element,
    //    including the odd-count cached-sine handoff.
    for (size_t n : {size_t(1), size_t(2), size_t(255),
                     size_t(256), size_t(1000)}) {
        Rng a(99), b(99);
        std::vector<double> buf(n);
        a.fillGaussian(buf.data(), n);
        for (size_t i = 0; i < n; ++i) {
            if (buf[i] != b.gaussian()) {
                std::fprintf(stderr,
                             "FATAL: fillGaussian[%zu] diverged "
                             "from gaussian() at n=%zu\n",
                             i, n);
                return 2;
            }
        }
        // The next draw must match too (cache state parity).
        std::array<double, 1> tail;
        a.fillGaussian(tail.data(), 1);
        if (tail[0] != b.gaussian()) {
            std::fprintf(stderr,
                         "FATAL: fillGaussian cache state diverged "
                         "after n=%zu\n",
                         n);
            return 2;
        }
    }
    std::printf("check: batch gaussian fill == scalar draws\n");

    // 3. Fast tier: bit-stable across runs and thread counts, and
    //    statistically consistent with the exact tier.
    const uint64_t ft = 100000;
    PositionErrorMonteCarlo f1(DeviceParams{}, 5, McTier::Fast);
    ThreadPool::setGlobalThreads(1);
    ErrorPdf fa = f1.run(7, ft);
    PositionErrorMonteCarlo f2(DeviceParams{}, 5, McTier::Fast);
    ThreadPool::setGlobalThreads(4);
    ErrorPdf fb = f2.run(7, ft);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    if (!pdfsIdentical(fa, fb)) {
        std::fprintf(stderr, "FATAL: fast tier is not bit-stable "
                             "across thread counts\n");
        return 2;
    }
    PositionErrorMonteCarlo ex(DeviceParams{}, 5, McTier::Exact);
    ErrorPdf ea = ex.run(7, ft);
    // Same distribution, different draws: means agree to a few
    // standard errors, stddevs to a few percent.
    double se = ea.deviation.stddev() /
                std::sqrt(static_cast<double>(ft));
    if (std::abs(fa.deviation.mean() - ea.deviation.mean()) >
            8.0 * se ||
        std::abs(fa.deviation.stddev() - ea.deviation.stddev()) >
            0.05 * ea.deviation.stddev()) {
        std::fprintf(stderr, "FATAL: fast tier moments diverged "
                             "from exact tier\n");
        return 2;
    }
    std::printf("check: fast tier seed/thread-stable, moments "
                "match exact\n");

    // 4. Perf gate: the batched kernel must beat the scalar
    //    reference single-threaded. Best of two absorbs cold-start.
    const uint64_t pt = 400000;
    double scalar_tps = 0.0, exact_tps = 0.0, fast_tps = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        scalar_tps =
            std::max(scalar_tps, mcScalarTrialsPerSec(1, pt));
        exact_tps = std::max(
            exact_tps, mcTrialsPerSec(1, pt, McTier::Exact));
        fast_tps = std::max(fast_tps,
                            mcTrialsPerSec(1, pt, McTier::Fast));
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    std::printf("check: scalar %.0f exact %.0f (%.2fx) fast %.0f "
                "(%.2fx) trials/s\n",
                scalar_tps, exact_tps, exact_tps / scalar_tps,
                fast_tps, fast_tps / scalar_tps);
    if (exact_tps < scalar_tps || fast_tps < scalar_tps) {
        std::fprintf(stderr, "FAIL: batched kernel slower than "
                             "scalar reference\n");
        return 1;
    }
    std::printf("check: PASS\n");
    return 0;
}

/** Median and range of repeated timings of one quantity. */
struct Spread
{
    double median = 0.0, min = 0.0, max = 0.0;
};

/** Repeats per BENCH_parallel.json entry. */
constexpr int kParallelRepeats = 5;

template <typename Fn>
Spread
spreadOf(Fn &&sample)
{
    std::vector<double> v;
    for (int i = 0; i < kParallelRepeats; ++i)
        v.push_back(sample());
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
}

void
printSpread(std::FILE *f, const char *indent, const char *key,
            const Spread &s, const char *fmt, bool last)
{
    std::fprintf(f, "%s\"%s\": {\"median\": ", indent, key);
    std::fprintf(f, fmt, s.median);
    std::fprintf(f, ", \"min\": ");
    std::fprintf(f, fmt, s.min);
    std::fprintf(f, ", \"max\": ");
    std::fprintf(f, fmt, s.max);
    std::fprintf(f, "}%s\n", last ? "" : ",");
}

} // namespace

/**
 * Time the parallel hot loops at thread counts {1, hw/2, hw} and
 * emit BENCH_parallel.json with one row per distinct count. Every
 * entry is the median of kParallelRepeats runs with their min/max.
 */
void
writeParallelBench()
{
    const unsigned configured = ThreadPool::configuredThreads();
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    std::vector<unsigned> counts{1};
    if (hw / 2 > 1)
        counts.push_back(hw / 2);
    if (hw > counts.back())
        counts.push_back(hw);

    const uint64_t mc_trials = 400000;
    const uint64_t seed_trials = 2000; // slow: recompute per trial
    /** serial_trials_per_sec recorded by the seed-era bench run. */
    const double kSeedSerialTps = 6390022.0;

    double seed_tps = seedBaselineTrialsPerSec(seed_trials);

    struct Row
    {
        unsigned requested, actual;
        Spread scalar_tps, exact_tps, fast_tps;
    };
    std::vector<Row> rows;
    for (unsigned tc : counts) {
        Row r;
        r.requested = tc;
        ThreadPool::setGlobalThreads(tc);
        r.actual = ThreadPool::global().threads();
        r.scalar_tps = spreadOf(
            [&] { return mcScalarTrialsPerSec(tc, mc_trials); });
        r.exact_tps = spreadOf([&] {
            return mcTrialsPerSec(tc, mc_trials, McTier::Exact);
        });
        r.fast_tps = spreadOf([&] {
            return mcTrialsPerSec(tc, mc_trials, McTier::Fast);
        });
        rows.push_back(r);
    }
    const Spread matrix_serial_s =
        spreadOf([] { return runMatrixSeconds(1); });
    const Spread matrix_parallel_s =
        spreadOf([hw] { return runMatrixSeconds(hw); });
    ThreadPool::setGlobalThreads(configured);

    std::FILE *f = std::fopen("BENCH_parallel.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "cannot write BENCH_parallel.json\n");
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
    std::fprintf(f, "  \"repeats\": %d,\n", kParallelRepeats);
    std::fprintf(f, "  \"monte_carlo\": {\n");
    std::fprintf(f, "    \"trials\": %llu,\n",
                 static_cast<unsigned long long>(mc_trials));
    std::fprintf(f,
                 "    \"seed_baseline_trials_per_sec\": %.0f,\n",
                 seed_tps);
    std::fprintf(f,
                 "    \"seed_serial_trials_per_sec\": %.0f,\n",
                 kSeedSerialTps);
    std::fprintf(f, "    \"rows\": [\n");
    const char *in = "        ";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f, "      {\n");
        std::fprintf(f, "%s\"threads\": %u,\n", in, r.actual);
        std::fprintf(f, "%s\"requested_threads\": %u,\n", in,
                     r.requested);
        printSpread(f, in, "scalar_trials_per_sec", r.scalar_tps,
                    "%.0f", false);
        printSpread(f, in, "exact_batch_trials_per_sec", r.exact_tps,
                    "%.0f", false);
        printSpread(f, in, "fast_batch_trials_per_sec", r.fast_tps,
                    "%.0f", false);
        std::fprintf(f,
                     "%s\"exact_speedup_vs_seed_serial\": %.2f,\n",
                     in, r.exact_tps.median / kSeedSerialTps);
        std::fprintf(f,
                     "%s\"fast_speedup_vs_seed_serial\": %.2f\n", in,
                     r.fast_tps.median / kSeedSerialTps);
        std::fprintf(f, "      }%s\n",
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"run_matrix\": {\n");
    printSpread(f, "    ", "serial_seconds", matrix_serial_s, "%.4f",
                false);
    printSpread(f, "    ", "parallel_seconds", matrix_parallel_s,
                "%.4f", false);
    std::fprintf(f, "    \"speedup\": %.2f\n",
                 matrix_serial_s.median / matrix_parallel_s.median);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    for (const Row &r : rows)
        std::printf("BENCH_parallel %u threads: scalar %.0f, "
                    "exact %.0f (%.2fx vs seed serial), fast %.0f "
                    "(%.2fx), medians of %d\n",
                    r.actual, r.scalar_tps.median, r.exact_tps.median,
                    r.exact_tps.median / kSeedSerialTps,
                    r.fast_tps.median,
                    r.fast_tps.median / kSeedSerialTps,
                    kParallelRepeats);
    std::printf("runMatrix %.2fx at %u threads\n",
                matrix_serial_s.median / matrix_parallel_s.median, hw);
}

} // namespace rtm

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            return rtm::checkTiers();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    rtm::writeParallelBench();
    return 0;
}
