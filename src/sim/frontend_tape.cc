#include "frontend_tape.hh"

#include <algorithm>
#include <optional>
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

// --- tape ------------------------------------------------------------

/** The request source, the private levels it drives, and buffers. */
struct FrontEndTape::Producer
{
    explicit Producer(const FrontEndTape &tape) : front(tape.config_)
    {
        if (!tape.trace_)
            gen.emplace(tape.profile_, tape.config_.cores, tape.seed_);
    }

    FrontEnd front;
    std::optional<WorkloadGenerator> gen;
    size_t trace_pos = 0;
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
                           uint64_t requests, size_t claims)
    : profile_(profile), seed_(seed), config_(config),
      requests_(requests), pending_(claims)
{
    FrontEnd::validate(config_);
    if (config_.cores > kMaxTapeCores)
        rtm_fatal("front-end tape holds at most %d cores",
                  kMaxTapeCores);
    line_shift_ = ceilLog2(config_.line_bytes);
    gap_shift_ = TapeReader::kCoreShift + ceilLog2(config_.cores);
}

FrontEndTape::FrontEndTape(const std::vector<MemRequest> &trace,
                           const HierarchyConfig &config,
                           uint64_t requests, size_t claims)
    : FrontEndTape(WorkloadProfile{}, 0, config, requests, claims)
{
    if (trace.empty())
        rtm_fatal("front-end tape: empty trace");
    trace_ = &trace;
}

FrontEndTape::~FrontEndTape()
{
    for (const Chunk &c : chunks_)
        g_live_bytes.fetch_sub(c.bytes());
    chunks_.clear();
    producer_.reset();
    settleCensus();
}

void
FrontEndTape::reclaim()
{
    // Passed chunks form a prefix: a reader at chunk k counts in
    // every later chunk too.
    while (!chunks_.empty() && chunks_.front().readers == 0) {
        g_live_bytes.fetch_sub(chunks_.front().bytes());
        chunks_.pop_front();
        ++freed_;
    }
    if (pending_ == 0 && active_ == 0)
        producer_.reset(); // nobody will read on
    settleCensus();
}

void
FrontEndTape::settleCensus()
{
    const bool live = producer_ || !chunks_.empty();
    if (live && !live_)
        raisePeak(g_peak_live_tapes, g_live_tapes.fetch_add(1) + 1);
    else if (!live && live_)
        g_live_tapes.fetch_sub(1);
    live_ = live;
}

void
FrontEndTape::dropReaders(size_t from)
{
    for (size_t k = std::max(from, freed_); k < produced_; ++k)
        --chunk(k).readers;
}

void
FrontEndTape::releaseClaim()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ == 0)
        rtm_panic("front-end tape: claim released twice");
    --pending_;
    dropReaders(0);
    reclaim();
}

bool
FrontEndTape::attach(bool claimed)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (claimed) {
        if (pending_ == 0)
            rtm_panic("front-end tape: claim spent twice");
        --pending_;
        ++active_;
        return true;
    }
    if (broken_ || freed_ > 0)
        return false;
    for (Chunk &c : chunks_)
        ++c.readers;
    ++active_;
    return true;
}

void
FrontEndTape::pass(size_t k)
{
    std::lock_guard<std::mutex> lock(mu_);
    --chunk(k).readers;
    reclaim();
}

void
FrontEndTape::detach(size_t k)
{
    std::lock_guard<std::mutex> lock(mu_);
    dropReaders(k);
    --active_;
    reclaim();
}

const FrontEndTape::Chunk *
FrontEndTape::produced(size_t k)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_)
        throw std::runtime_error("front-end tape: an earlier "
                                 "production failed");
    return k < produced_ ? &chunk(k) : nullptr;
}

const FrontEndTape::Chunk *
FrontEndTape::acquire(size_t k, Telemetry *sink)
{
    if (const Chunk *c = produced(k))
        return c;
    // Produce outside mu_, so readers behind keep moving; a reader
    // that wanted the same chunk finds it once it gets the lock.
    std::lock_guard<std::mutex> production(produce_mu_);
    if (const Chunk *c = produced(k))
        return c;
    const uint64_t first = static_cast<uint64_t>(k) * kChunkRequests;
    if (first >= requests_)
        rtm_panic("front-end tape: read past request %llu",
                  static_cast<unsigned long long>(requests_));
    const uint64_t n = std::min(kChunkRequests, requests_ - first);
    Chunk fresh;
    try {
        if (!producer_) {
            auto producer = std::make_unique<Producer>(*this);
            std::lock_guard<std::mutex> lock(mu_);
            producer_ = std::move(producer);
            settleCensus();
        }
        produce(fresh, n);
    } catch (...) {
        // The producer may have advanced part-way: no reader can
        // trust this tape again (a retry replays a private copy).
        std::lock_guard<std::mutex> lock(mu_);
        broken_ = true;
        producer_.reset();
        settleCensus();
        throw;
    }
    if (sink)
        sink->counter("sim.frontend.requests").add(n);
    g_records.fetch_add(n);
    g_record_bytes.fetch_add(fresh.bytes());
    const uint64_t bytes = fresh.bytes();
    raisePeak(g_peak_bytes, g_live_bytes.fetch_add(bytes) + bytes);

    std::lock_guard<std::mutex> lock(mu_);
    fresh.readers = pending_ + active_;
    chunks_.push_back(std::move(fresh));
    ++produced_;
    if (first + n == requests_) {
        l1_total_ = producer_->front.l1Totals();
        l2_total_ = producer_->front.l2Totals();
        producer_.reset();
    }
    settleCensus();
    return &chunks_.back();
}

void
FrontEndTape::produce(Chunk &c, uint64_t n)
{
    Producer &p = *producer_;
    const uint32_t escape = 0xffffu >> gap_shift_;
    c.records.resize(n);
    p.lines.clear();
    p.big_gaps.clear();
    auto record = [&](uint64_t i, const MemRequest &r) {
        const FrontEndAccess fe =
            p.front.access(r.core, r.addr, r.is_write);
        uint32_t gap = r.gap_instructions;
        if (gap >= escape) {
            p.big_gaps.push_back(gap);
            gap = escape;
        }
        c.records[i] = static_cast<uint16_t>(
            (gap << gap_shift_) |
            (static_cast<uint32_t>(r.core) << TapeReader::kCoreShift) |
            (r.is_write ? TapeReader::kWrite : 0u) |
            (fe.l1_hit ? TapeReader::kL1Hit : 0u) |
            (fe.l1_writeback ? TapeReader::kL1Writeback : 0u) |
            (fe.l2_hit ? TapeReader::kL2Hit : 0u) |
            (fe.l2_writeback ? TapeReader::kL2Writeback : 0u));
        if (!fe.l1_hit && !fe.l2_hit) {
            p.lines.push_back(r.addr >> line_shift_);
            if (fe.l2_writeback)
                p.lines.push_back(fe.l2_victim >> line_shift_);
        }
    };
    if (p.gen) {
        for (uint64_t i = 0; i < n; ++i)
            record(i, p.gen->next());
    } else {
        const std::vector<MemRequest> &trace = *trace_;
        for (uint64_t i = 0; i < n; ++i) {
            record(i, trace[p.trace_pos]);
            if (++p.trace_pos == trace.size())
                p.trace_pos = 0;
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

TapeReader::TapeReader(FrontEndTape &tape, bool claimed,
                       TelemetryScope sink)
    : tape_(&tape), sink_(sink), line_shift_(tape.line_shift_),
      gap_shift_(tape.gap_shift_),
      core_mask_((1u << (tape.gap_shift_ - kCoreShift)) - 1),
      gap_escape_(0xffffu >> tape.gap_shift_)
{
    if (tape.attach(claimed))
        return;
    // Chunk 0 is gone (a retry after the other readers moved on):
    // replay the same stream privately.
    if (tape.trace_)
        own_ = std::make_unique<FrontEndTape>(*tape.trace_, tape.config_,
                                              tape.requests_, 1);
    else
        own_ = std::make_unique<FrontEndTape>(tape.profile_, tape.seed_,
                                              tape.config_,
                                              tape.requests_, 1);
    own_->attach(true);
    tape_ = own_.get();
}

TapeReader::~TapeReader()
{
    tape_->detach(index_);
}

void
TapeReader::advance()
{
    if (chunk_) {
        tape_->pass(index_);
        ++index_;
    }
    chunk_ = tape_->acquire(index_, sink_.get());
    records_ = chunk_->records.data();
    words_ = chunk_->words.data();
    pos_ = 0;
    end_ = chunk_->records.size();
    addr_pos_ = 0;
    gap_pos_ = chunk_->gaps;
    wide_ = chunk_->wide;
}

} // namespace rtm
