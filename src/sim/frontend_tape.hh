/**
 * @file
 * Front-end streams and tapes: a workload's private-level outcome
 * stream, run live for one LLC option or recorded once and replayed
 * by several.
 *
 * L1/L2 state and request gaps never depend on the LLC, so the
 * stream of (core, gap, L1/L2 outcome, L2-miss address, dirty L2
 * victim) is a pure function of (profile, seed, L1/L2 geometry). A
 * FrontEndStream owns the request source (workload generator or
 * trace cursor) and the FrontEnd caches and yields that stream one
 * record at a time; simulate(), simulateTrace() and one-option
 * matrix workloads read it directly (sim/system.hh).
 *
 * A FrontEndTape records a generator stream for a workload with
 * several LLC options, as compact per-request records in chunks of
 * kChunkRequests, and each reader replays the records through its
 * own BackEnd. Production is lazy and append-only: whichever reader
 * reaches an unproduced chunk produces it under the tape's lock,
 * and an atomic produced count publishes it, so readers behind the
 * producer read without a lock. Chunks live as long as the tape: a
 * reader (a retry too) can start at chunk 0 at any time, and the
 * whole tape is freed when its last holder drops it. The stream is
 * freed with the last chunk. A production that throws marks the
 * tape failed and every reader that reaches an unproduced chunk
 * throws.
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
#include <memory>
#include <mutex>
#include <optional>
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
    uint64_t live_tapes = 0; //!< tapes that have produced a chunk
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

/**
 * A workload's front end run live: the request source plus the
 * private levels it drives (see the file comment).
 */
class FrontEndStream
{
  public:
    /**
     * @param profile workload profile (already scaled)
     * @param seed    generator seed
     * @param config  hierarchy whose front-end geometry to model
     */
    FrontEndStream(const WorkloadProfile &profile, uint64_t seed,
                   const HierarchyConfig &config);

    /**
     * The requests of a recorded trace, looped (must be non-empty
     * and outlive the stream).
     */
    FrontEndStream(const std::vector<MemRequest> &trace,
                   const HierarchyConfig &config);

    /**
     * The next request, as a decoded tape record: a line-aligned
     * address on an L2 miss, a victim only on a dirty L2 writeback.
     */
    TapeRecord next()
    {
        ++requests_;
        return record(gen_ ? gen_->next() : nextTraced());
    }

    /** Every L1 / L2 summed, after the requests so far. */
    CacheStats l1Totals() const { return front_.l1Totals(); }
    CacheStats l2Totals() const { return front_.l2Totals(); }

    /**
     * Export `sim.frontend.requests` (requests run so far) and the
     * private levels' counters.
     */
    void exportTelemetry(Telemetry &sink) const;

  private:
    MemRequest nextTraced()
    {
        const MemRequest &r = (*trace_)[trace_pos_];
        if (++trace_pos_ == trace_->size())
            trace_pos_ = 0;
        return r;
    }

    TapeRecord record(const MemRequest &r)
    {
        TapeRecord rec;
        rec.fe = front_.access(r.core, r.addr, r.is_write);
        rec.gap = r.gap_instructions;
        rec.core = r.core;
        rec.is_write = r.is_write;
        const Addr victim = rec.fe.l2_victim;
        rec.fe.l2_victim = 0;
        if (!rec.fe.l1_hit && !rec.fe.l2_hit) {
            rec.addr = (r.addr >> line_shift_) << line_shift_;
            if (rec.fe.l2_writeback)
                rec.fe.l2_victim = victim;
        }
        return rec;
    }

    FrontEnd front_;
    std::optional<WorkloadGenerator> gen_;
    const std::vector<MemRequest> *trace_ = nullptr;
    size_t trace_pos_ = 0;
    uint64_t requests_ = 0;
    int line_shift_ = 0; //!< log2(line bytes)
};

/** A workload's recorded front-end stream (see the file comment). */
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
     */
    FrontEndTape(const WorkloadProfile &profile, uint64_t seed,
                 const HierarchyConfig &config, uint64_t requests);

    ~FrontEndTape();

    FrontEndTape(const FrontEndTape &) = delete;
    FrontEndTape &operator=(const FrontEndTape &) = delete;

    uint64_t requests() const { return requests_; }
    const HierarchyConfig &config() const { return config_; }

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
        uint32_t gaps = 0; //!< first escaped gap in `words`
        bool wide = false; //!< two words per address
        uint64_t bytes() const;
    };
    struct Producer;

    /** Chunk `k`, produced by the caller when it is the first. */
    const Chunk &acquire(size_t k, Telemetry *sink);
    void produce(Chunk &c, uint64_t n);

    WorkloadProfile profile_;
    uint64_t seed_ = 0;
    HierarchyConfig config_;
    uint64_t requests_ = 0;
    int line_shift_ = 0; //!< log2(line bytes)
    int gap_shift_ = 0;  //!< first gap bit of a record

    std::vector<Chunk> chunks_; //!< every chunk, sized up front
    std::atomic<size_t> produced_{0}; //!< chunks [0, produced_) done
    std::mutex mu_; //!< production state below
    std::unique_ptr<Producer> producer_;
    uint64_t bytes_ = 0;  //!< produced chunk bytes
    bool live_ = false;   //!< counted in the census
    bool failed_ = false; //!< a production threw
    CacheStats l1_total_;
    CacheStats l2_total_;
};

/** One reader's cursor over a tape, from its first record. */
class TapeReader
{
  public:
    /**
     * @param sink receives `sim.frontend.requests` for each chunk
     *             this reader produces (may be null)
     */
    TapeReader(FrontEndTape &tape, TelemetryScope sink);

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

    /**
     * Export the private levels' counters, after the tape's last
     * record.
     */
    void exportTelemetry(Telemetry &sink) const;

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

    FrontEndTape &tape_;
    TelemetryScope sink_;
    const uint16_t *records_ = nullptr;
    const uint32_t *words_ = nullptr;
    size_t index_ = 0; //!< next chunk to read
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

} // namespace rtm

#endif // RTM_SIM_FRONTEND_TAPE_HH
