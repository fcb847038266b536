/**
 * @file
 * Front-end tapes: a workload's private-level outcome stream,
 * produced once and replayed by every LLC option.
 *
 * L1/L2 state and request gaps never depend on the LLC, so the
 * stream of (core, gap, L1/L2 outcome, L2-miss address, dirty L2
 * victim) is a pure function of (profile, seed, L1/L2 geometry). A
 * FrontEndTape owns the request source (workload generator or trace
 * cursor) and the FrontEnd caches, and records that stream as
 * compact per-request records in chunks of kChunkRequests. Each
 * reader replays the records through its own BackEnd (sim/system.hh).
 *
 * Production is lazy and shared: whichever reader reaches an
 * unproduced chunk produces it under the tape's lock. Every chunk
 * counts the readers that have yet to pass it — attached readers and
 * claims not yet spent — and is freed when that count reaches zero;
 * the producer state is freed with the last chunk. A tape with one
 * claim (simulate(), simulateTrace()) therefore retains nothing
 * behind its reader.
 *
 * Record encoding: 16 bits per request — five outcome flags, the
 * core, and the gap in the bits left (9 bits at 4 cores) — plus a
 * 32-bit line index per L2-miss address and per dirty L2 victim (two
 * words each in a chunk holding a line index at or above 2^32), plus
 * the full gap of any request whose gap does not fit its field.
 */

#ifndef RTM_SIM_FRONTEND_TAPE_HH
#define RTM_SIM_FRONTEND_TAPE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "mem/hierarchy.hh"
#include "trace/workload.hh"
#include "util/telemetry.hh"

namespace rtm
{

/** One request as a back end replays it. */
struct TapeRecord
{
    FrontEndAccess fe;
    Addr addr = 0;    //!< request line address (L2 misses only)
    uint32_t gap = 0; //!< non-memory instructions before it
    int core = 0;
    bool is_write = false;
};

/** Process-wide tape census (diagnostics and tests). */
struct TapeCensus
{
    uint64_t live_tapes = 0; //!< tapes holding chunks or a producer
    uint64_t peak_live_tapes = 0;
    uint64_t live_bytes = 0; //!< allocated chunk bytes
    uint64_t peak_bytes = 0;
    uint64_t records = 0;      //!< records produced so far
    uint64_t record_bytes = 0; //!< their encoded size
};

/** Current census. */
TapeCensus tapeCensus();

/** Restart the peaks from the current live values. */
void resetTapePeaks();

/** A workload's front-end outcome stream (see the file comment). */
class FrontEndTape
{
  public:
    /** Requests per chunk. */
    static constexpr uint64_t kChunkRequests = 4096;

    /**
     * A tape of `requests` generator requests.
     *
     * @param profile workload profile (already scaled)
     * @param seed    generator seed
     * @param config  hierarchy whose front-end geometry to model
     * @param claims  readers that will attach with a claim
     */
    FrontEndTape(const WorkloadProfile &profile, uint64_t seed,
                 const HierarchyConfig &config, uint64_t requests,
                 size_t claims);

    /**
     * A tape of `requests` requests of a recorded trace (looped;
     * must be non-empty and outlive the tape).
     */
    FrontEndTape(const std::vector<MemRequest> &trace,
                 const HierarchyConfig &config, uint64_t requests,
                 size_t claims);

    ~FrontEndTape();

    FrontEndTape(const FrontEndTape &) = delete;
    FrontEndTape &operator=(const FrontEndTape &) = delete;

    uint64_t requests() const { return requests_; }
    const HierarchyConfig &config() const { return config_; }

    /** Drop one unspent claim: that reader will not come. */
    void releaseClaim();

  private:
    friend class TapeReader;

    /**
     * One record per request; `words` holds the addresses, then the
     * escaped gaps, in request order.
     */
    struct Chunk
    {
        std::vector<uint16_t> records;
        std::vector<uint32_t> words;
        uint32_t gaps = 0;  //!< first escaped gap in `words`
        bool wide = false;  //!< two words per address
        size_t readers = 0; //!< readers yet to pass it
        uint64_t bytes() const;
    };
    struct Producer;

    /** Join as a reader at chunk 0; false when that is gone. */
    bool attach(bool claimed);
    /** Chunk `k`, produced by the caller when it is the first. */
    const Chunk *acquire(size_t k, Telemetry *sink);
    /** Chunk `k` if produced (and not freed), else null. */
    const Chunk *produced(size_t k);
    /** A reader moved past chunk `k`. */
    void pass(size_t k);
    /** A reader at chunk `k` left. */
    void detach(size_t k);

    Chunk &chunk(size_t k) { return chunks_[k - freed_]; }
    void produce(Chunk &c, uint64_t n);
    void dropReaders(size_t from);
    void reclaim();
    void settleCensus();

    WorkloadProfile profile_;
    uint64_t seed_ = 0;
    const std::vector<MemRequest> *trace_ = nullptr;
    HierarchyConfig config_;
    uint64_t requests_ = 0;
    int line_shift_ = 0; //!< log2(line bytes)
    int gap_shift_ = 0;  //!< first gap bit of a record

    std::mutex mu_;         //!< chunk list and reader counts
    std::mutex produce_mu_; //!< one producer at a time
    std::unique_ptr<Producer> producer_;
    std::deque<Chunk> chunks_; //!< chunks [freed_, produced_)
    size_t produced_ = 0;
    size_t freed_ = 0;
    size_t pending_ = 0; //!< unspent claims
    size_t active_ = 0;  //!< attached readers
    bool broken_ = false; //!< a production threw
    bool live_ = false;   //!< counted in the census
    CacheStats l1_total_;
    CacheStats l2_total_;
};

/**
 * One reader's cursor over a tape. Attaching spends the caller's
 * claim when it holds one; otherwise it joins the tape if no chunk
 * has been freed yet, and replays a private copy of the tape if one
 * has. Leaving (destruction) releases every chunk not yet passed.
 */
class TapeReader
{
  public:
    /**
     * @param sink receives `sim.frontend.requests` for each chunk
     *             this reader produces (may be null)
     */
    TapeReader(FrontEndTape &tape, bool claimed, TelemetryScope sink);
    ~TapeReader();

    TapeReader(const TapeReader &) = delete;
    TapeReader &operator=(const TapeReader &) = delete;

    /** The next record (at most the tape's requests() calls). */
    TapeRecord next()
    {
        if (pos_ == end_)
            advance();
        const uint32_t w = records_[pos_++];
        TapeRecord r;
        r.core = static_cast<int>((w >> kCoreShift) & core_mask_);
        r.gap = w >> gap_shift_;
        if (r.gap == gap_escape_)
            r.gap = words_[gap_pos_++];
        r.is_write = w & kWrite;
        r.fe.l1_hit = w & kL1Hit;
        r.fe.l1_writeback = w & kL1Writeback;
        r.fe.l2_hit = w & kL2Hit;
        r.fe.l2_writeback = w & kL2Writeback;
        if (!(w & (kL1Hit | kL2Hit))) {
            r.addr = line();
            if (w & kL2Writeback)
                r.fe.l2_victim = line();
        }
        return r;
    }

    /** Every L1 / L2 summed, after the tape's last request. */
    const CacheStats &l1Totals() const { return tape_->l1_total_; }
    const CacheStats &l2Totals() const { return tape_->l2_total_; }

    /** Record flag bits; the core follows them, then the gap. */
    enum : uint32_t
    {
        kWrite = 1,
        kL1Hit = 2,
        kL1Writeback = 4,
        kL2Hit = 8,
        kL2Writeback = 16,
        kCoreShift = 5
    };

  private:
    void advance();

    Addr line()
    {
        Addr index = words_[addr_pos_++];
        if (wide_)
            index |= static_cast<Addr>(words_[addr_pos_++]) << 32;
        return index << line_shift_;
    }

    FrontEndTape *tape_;
    std::unique_ptr<FrontEndTape> own_; //!< private replay, if any
    TelemetryScope sink_;
    const FrontEndTape::Chunk *chunk_ = nullptr;
    const uint16_t *records_ = nullptr;
    const uint32_t *words_ = nullptr;
    size_t index_ = 0; //!< chunk this reader is at
    size_t pos_ = 0;
    size_t end_ = 0;
    size_t addr_pos_ = 0;
    size_t gap_pos_ = 0;
    bool wide_ = false;
    int line_shift_;
    int gap_shift_;
    uint32_t core_mask_;
    uint32_t gap_escape_; //!< gap field value: full gap in `words`
};

/**
 * One cell's claim on its workload's shared tape. The cell's first
 * attempt spends it; release() drops it unspent — a cell replayed
 * from a journal, or an attempt that ended before it read — so the
 * tape never keeps chunks for a reader that will not come.
 */
class TapeClaim
{
  public:
    explicit TapeClaim(std::shared_ptr<FrontEndTape> tape)
        : tape_(std::move(tape))
    {
    }

    FrontEndTape &tape() const { return *tape_; }

    /** True once: the claim, for a TapeReader to spend. */
    bool spend() { return held_.exchange(false); }

    void release()
    {
        if (spend())
            tape_->releaseClaim();
    }

  private:
    std::shared_ptr<FrontEndTape> tape_;
    std::atomic<bool> held_{true};
};

} // namespace rtm

#endif // RTM_SIM_FRONTEND_TAPE_HH
