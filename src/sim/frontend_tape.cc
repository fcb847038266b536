#include "frontend_tape.hh"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hh"

namespace rtm
{

namespace
{

std::atomic<uint64_t> g_live_tapes{0};
std::atomic<uint64_t> g_peak_live_tapes{0};
std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};
std::atomic<uint64_t> g_records{0};
std::atomic<uint64_t> g_record_bytes{0};

void
raisePeak(std::atomic<uint64_t> &peak, uint64_t value)
{
    uint64_t seen = peak.load(std::memory_order_relaxed);
    while (value > seen &&
           !peak.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

/** Most cores a record can name (leaves the gap four bits). */
constexpr int kMaxTapeCores = 128;

/** Smallest b with 2^b >= v. */
int
ceilLog2(int v)
{
    int bits = 0;
    while ((1 << bits) < v)
        ++bits;
    return bits;
}

} // anonymous namespace

TapeCensus
tapeCensus()
{
    TapeCensus c;
    c.live_tapes = g_live_tapes.load();
    c.peak_live_tapes = g_peak_live_tapes.load();
    c.live_bytes = g_live_bytes.load();
    c.peak_bytes = g_peak_bytes.load();
    c.records = g_records.load();
    c.record_bytes = g_record_bytes.load();
    return c;
}

void
resetTapePeaks()
{
    g_peak_live_tapes.store(g_live_tapes.load());
    g_peak_bytes.store(g_live_bytes.load());
}

// --- stream --------------------------------------------------------

FrontEndStream::FrontEndStream(const WorkloadProfile &profile,
                               uint64_t seed,
                               const HierarchyConfig &config)
    : front_(config), line_shift_(ceilLog2(config.line_bytes))
{
    gen_.emplace(profile, config.cores, seed);
}

FrontEndStream::FrontEndStream(const std::vector<MemRequest> &trace,
                               const HierarchyConfig &config)
    : front_(config), trace_(&trace),
      line_shift_(ceilLog2(config.line_bytes))
{
    if (trace.empty())
        rtm_fatal("front-end stream: empty trace");
}

void
FrontEndStream::exportTelemetry(Telemetry &sink) const
{
    sink.counter("sim.frontend.requests").add(requests_);
    exportFrontEndTelemetry(sink, l1Totals(), l2Totals());
}

// --- tape ------------------------------------------------------------

/** The stream a tape records, and its per-chunk buffers. */
struct FrontEndTape::Producer
{
    explicit Producer(const FrontEndTape &tape)
        : stream(tape.profile_, tape.seed_, tape.config_)
    {
    }

    FrontEndStream stream;
    std::vector<Addr> lines;
    std::vector<uint32_t> big_gaps;
};

uint64_t
FrontEndTape::Chunk::bytes() const
{
    return records.capacity() * sizeof(uint16_t) +
           words.capacity() * sizeof(uint32_t);
}

FrontEndTape::FrontEndTape(const WorkloadProfile &profile,
                           uint64_t seed,
                           const HierarchyConfig &config,
                           uint64_t requests)
    : profile_(profile), seed_(seed), config_(config),
      requests_(requests),
      chunks_((requests + kChunkRequests - 1) / kChunkRequests)
{
    FrontEnd::validate(config_);
    if (config_.cores > kMaxTapeCores)
        rtm_fatal("front-end tape holds at most %d cores",
                  kMaxTapeCores);
    line_shift_ = ceilLog2(config_.line_bytes);
    gap_shift_ = TapeReader::kCoreShift + ceilLog2(config_.cores);
}

FrontEndTape::~FrontEndTape()
{
    g_live_bytes.fetch_sub(bytes_);
    if (live_)
        g_live_tapes.fetch_sub(1);
}

const FrontEndTape::Chunk &
FrontEndTape::acquire(size_t k, Telemetry *sink)
{
    if (k < produced_.load(std::memory_order_acquire))
        return chunks_[k];
    std::lock_guard<std::mutex> lock(mu_);
    if (k < produced_.load(std::memory_order_relaxed))
        return chunks_[k];
    if (failed_)
        throw std::runtime_error("front-end tape: an earlier "
                                 "production failed");
    if (k >= chunks_.size())
        rtm_panic("front-end tape: read past request %llu",
                  static_cast<unsigned long long>(requests_));
    const uint64_t first = static_cast<uint64_t>(k) * kChunkRequests;
    const uint64_t n = std::min(kChunkRequests, requests_ - first);
    Chunk &c = chunks_[k];
    try {
        if (!live_) {
            live_ = true;
            raisePeak(g_peak_live_tapes, g_live_tapes.fetch_add(1) + 1);
            producer_ = std::make_unique<Producer>(*this);
        }
        produce(c, n);
    } catch (...) {
        // The stream may have advanced part-way: no reader can
        // trust this tape again.
        failed_ = true;
        producer_.reset();
        throw;
    }
    if (sink)
        sink->counter("sim.frontend.requests").add(n);
    const uint64_t bytes = c.bytes();
    bytes_ += bytes;
    g_records.fetch_add(n);
    g_record_bytes.fetch_add(bytes);
    raisePeak(g_peak_bytes, g_live_bytes.fetch_add(bytes) + bytes);
    if (k + 1 == chunks_.size()) {
        l1_total_ = producer_->stream.l1Totals();
        l2_total_ = producer_->stream.l2Totals();
        producer_.reset();
    }
    produced_.store(k + 1, std::memory_order_release);
    return c;
}

void
FrontEndTape::produce(Chunk &c, uint64_t n)
{
    Producer &p = *producer_;
    const uint32_t escape = 0xffffu >> gap_shift_;
    c.records.resize(n);
    p.lines.clear();
    p.big_gaps.clear();
    for (uint64_t i = 0; i < n; ++i) {
        const TapeRecord r = p.stream.next();
        uint32_t gap = r.gap;
        if (gap >= escape) {
            p.big_gaps.push_back(gap);
            gap = escape;
        }
        c.records[i] = static_cast<uint16_t>(
            (gap << gap_shift_) |
            (static_cast<uint32_t>(r.core) << TapeReader::kCoreShift) |
            (r.is_write ? TapeReader::kWrite : 0u) |
            (r.fe.l1_hit ? TapeReader::kL1Hit : 0u) |
            (r.fe.l1_writeback ? TapeReader::kL1Writeback : 0u) |
            (r.fe.l2_hit ? TapeReader::kL2Hit : 0u) |
            (r.fe.l2_writeback ? TapeReader::kL2Writeback : 0u));
        if (!r.fe.l1_hit && !r.fe.l2_hit) {
            p.lines.push_back(r.addr >> line_shift_);
            if (r.fe.l2_writeback)
                p.lines.push_back(r.fe.l2_victim >> line_shift_);
        }
    }

    // One exact-size allocation for the addresses and escaped gaps.
    Addr widest = 0;
    for (Addr line : p.lines)
        widest |= line;
    c.wide = widest > UINT32_MAX;
    const size_t per_line = c.wide ? 2 : 1;
    c.words.reserve(per_line * p.lines.size() + p.big_gaps.size());
    for (Addr line : p.lines) {
        c.words.push_back(static_cast<uint32_t>(line));
        if (c.wide)
            c.words.push_back(static_cast<uint32_t>(line >> 32));
    }
    c.gaps = static_cast<uint32_t>(c.words.size());
    c.words.insert(c.words.end(), p.big_gaps.begin(),
                   p.big_gaps.end());
}

// --- reader ----------------------------------------------------------

TapeReader::TapeReader(FrontEndTape &tape, TelemetryScope sink)
    : tape_(tape), sink_(sink), line_shift_(tape.line_shift_),
      gap_shift_(tape.gap_shift_),
      core_mask_((1u << (tape.gap_shift_ - kCoreShift)) - 1),
      gap_escape_(0xffffu >> tape.gap_shift_)
{
}

void
TapeReader::exportTelemetry(Telemetry &sink) const
{
    exportFrontEndTelemetry(sink, tape_.l1_total_, tape_.l2_total_);
}

void
TapeReader::advance()
{
    const FrontEndTape::Chunk &c = tape_.acquire(index_++, sink_.get());
    records_ = c.records.data();
    words_ = c.words.data();
    pos_ = 0;
    end_ = c.records.size();
    addr_pos_ = 0;
    gap_pos_ = c.gaps;
    wide_ = c.wide;
}

} // namespace rtm
