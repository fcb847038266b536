/**
 * @file
 * Set-associative write-back cache with LRU replacement.
 *
 * This is the tag-array substrate of the evaluation's three-level
 * hierarchy (paper Table 4). It models hits, misses, allocations and
 * dirty evictions; timing and energy are layered on top by the
 * hierarchy and LLC models so the same tag logic serves SRAM, STT-RAM
 * and racetrack configurations.
 *
 * The simulator runs millions of accesses per (workload, option)
 * cell, so the lookup path is specialised at construction: line size
 * and set count are powers of two (enforced), so set/tag extraction
 * is a shift and a mask, and the line metadata is stored
 * structure-of-arrays — the way scan walks one compact packed-tag
 * word array (tag | dirty | valid) instead of striding over full
 * line records, touching two cache lines per 16-way set instead of
 * six. LRU state is a per-set recency order of one byte per way
 * rather than an 8-byte timestamp per line. Behaviour (hit/miss,
 * victim selection, fill order, stats) is
 * bit-identical to the straightforward implementation;
 * tests/sim_golden_test.cc pins that equivalence against a reference
 * copy of the original code.
 */

#ifndef RTM_MEM_CACHE_HH
#define RTM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

namespace rtm
{

/** Physical address type. */
using Addr = uint64_t;

/** Result of a cache lookup+allocate. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;     //!< a dirty victim was evicted
    Addr victim_addr = 0;       //!< line address of the victim
    uint64_t frame_index = 0;   //!< set * assoc + way touched
};

/** Aggregate counters for one cache. */
struct CacheStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_misses = 0;
    uint64_t write_misses = 0;
    uint64_t writebacks = 0;

    uint64_t accesses() const { return reads + writes; }
    uint64_t misses() const { return read_misses + write_misses; }
    double missRate() const;
};

/**
 * Tag-array model.
 */
class Cache
{
  public:
    /**
     * @param capacity_bytes total data capacity
     * @param associativity  ways per set
     * @param line_bytes     line size (64 B in the paper)
     */
    Cache(uint64_t capacity_bytes, int associativity,
          int line_bytes = 64);

    /**
     * Look up an address; allocate on miss (write-allocate policy).
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Invalidate everything (test support). */
    void flush();

    /** True if the line holding addr is currently resident. */
    bool contains(Addr addr) const;

    const CacheStats &stats() const { return stats_; }

    uint64_t sets() const { return sets_; }
    int ways() const { return ways_; }
    int lineBytes() const { return line_bytes_; }
    uint64_t capacityBytes() const { return capacity_; }

  private:
    /** Low state bits of a packed metadata word. */
    enum : uint64_t { kValid = 1, kDirty = 2, kStateMask = 3 };

    uint64_t capacity_;
    int ways_;
    int line_bytes_;
    uint64_t sets_;
    int line_shift_;     //!< log2(line_bytes)
    int tag_shift_;      //!< log2(line_bytes * sets)
    uint64_t set_mask_;  //!< sets - 1

    // Structure-of-arrays line metadata, indexed set * ways + way.
    // meta_[i] = (tag << 2) | dirty | valid: the hit scan touches
    // only this one compact word array (a tag cannot overflow the 62
    // available bits — tag = addr >> tag_shift with tag_shift >= 6).
    std::vector<uint64_t> meta_;

    // Per-set recency order, one byte per way: order_[set * ways]
    // is the most recently used way and order_[set * ways + ways -
    // 1] the least. Every touch (hit or fill) moves the way to the
    // front, so once a set is full its back is the way with the
    // oldest last touch — the victim a per-line timestamp picks.
    std::vector<uint8_t> order_;

    CacheStats stats_;

    uint64_t setOf(Addr addr) const
    {
        return (addr >> line_shift_) & set_mask_;
    }

    Addr tagOf(Addr addr) const { return addr >> tag_shift_; }

    Addr lineAddr(Addr tag, uint64_t set) const
    {
        return ((tag << (tag_shift_ - line_shift_)) | set)
               << line_shift_;
    }

    /** Way holding (set, tag), or -1 when not resident. */
    int findWay(uint64_t base, Addr tag) const;

    /** Make `way` the most recently used of the set at `base`. */
    void touch(uint64_t base, int way);

    /** Reset every set's recency order to way 0, 1, ... */
    void resetOrder();
};

} // namespace rtm

#endif // RTM_MEM_CACHE_HH
