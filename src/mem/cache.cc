#include "cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

namespace
{

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
log2OfPowerOfTwo(uint64_t v)
{
    int s = 0;
    while ((v >> s) != 1)
        ++s;
    return s;
}

} // anonymous namespace

double
CacheStats::missRate() const
{
    uint64_t total = accesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses()) /
           static_cast<double>(total);
}

Cache::Cache(uint64_t capacity_bytes, int associativity,
             int line_bytes)
    : capacity_(capacity_bytes), ways_(associativity),
      line_bytes_(line_bytes)
{
    if (ways_ < 1 || ways_ > 256)
        rtm_fatal("cache needs 1 to 256 ways, got %d", ways_);
    if (!isPowerOfTwo(static_cast<uint64_t>(line_bytes_)))
        rtm_fatal("line size must be a power of two");
    uint64_t lines = capacity_ / static_cast<uint64_t>(line_bytes_);
    if (lines == 0 || lines % static_cast<uint64_t>(ways_) != 0)
        rtm_fatal("capacity %llu not divisible into %d-way sets",
                  static_cast<unsigned long long>(capacity_), ways_);
    sets_ = lines / static_cast<uint64_t>(ways_);
    if (!isPowerOfTwo(sets_))
        rtm_fatal("set count must be a power of two");
    line_shift_ = log2OfPowerOfTwo(
        static_cast<uint64_t>(line_bytes_));
    tag_shift_ = line_shift_ + log2OfPowerOfTwo(sets_);
    set_mask_ = sets_ - 1;
    meta_.assign(lines, 0);
    order_.resize(lines);
    resetOrder();
}

void
Cache::resetOrder()
{
    for (uint64_t i = 0; i < order_.size(); ++i)
        order_[i] = static_cast<uint8_t>(
            i % static_cast<uint64_t>(ways_));
}

void
Cache::touch(uint64_t base, int way)
{
    // Rotate [0, pos of way] right by one in a single pass.
    uint8_t *order = &order_[base];
    uint8_t carry = order[0];
    order[0] = static_cast<uint8_t>(way);
    for (size_t p = 1; carry != order[0]; ++p)
        std::swap(carry, order[p]);
}

int
Cache::findWay(uint64_t base, Addr tag) const
{
    // A valid entry with this tag matches ignoring its dirty bit.
    const uint64_t want = (tag << 2) | kValid | kDirty;
    for (int w = 0; w < ways_; ++w) {
        if ((meta_[base + static_cast<uint64_t>(w)] | kDirty) == want)
            return w;
    }
    return -1;
}

bool
Cache::contains(Addr addr) const
{
    uint64_t base = setOf(addr) * static_cast<uint64_t>(ways_);
    return findWay(base, tagOf(addr)) >= 0;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    uint64_t set = setOf(addr);
    Addr tag = tagOf(addr);
    uint64_t base = set * static_cast<uint64_t>(ways_);
    CacheAccessResult res;

    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;

    // One pass finds the hit way and, failing that, the first
    // invalid way, which wins outright (fill order matters for the
    // racetrack frame mapping). A full set evicts the back of its
    // recency order.
    const uint64_t want = (tag << 2) | kValid | kDirty;
    int victim = -1;
    for (int w = 0; w < ways_; ++w) {
        uint64_t i = base + static_cast<uint64_t>(w);
        uint64_t m = meta_[i];
        if (m & kValid) {
            if ((m | kDirty) == want) {
                touch(base, w);
                if (is_write)
                    meta_[i] = m | kDirty;
                res.hit = true;
                res.frame_index = i;
                return res;
            }
        } else if (victim < 0) {
            victim = w;
        }
    }
    if (victim < 0)
        victim = order_[base + static_cast<uint64_t>(ways_ - 1)];

    if (is_write)
        ++stats_.write_misses;
    else
        ++stats_.read_misses;

    uint64_t vi = base + static_cast<uint64_t>(victim);
    uint64_t vm = meta_[vi];
    if ((vm & kStateMask) == (kValid | kDirty)) {
        res.writeback = true;
        res.victim_addr = lineAddr(vm >> 2, set);
        ++stats_.writebacks;
    }
    meta_[vi] = (tag << 2) | (is_write ? (kValid | kDirty) : kValid);
    touch(base, victim);
    res.frame_index = vi;
    return res;
}

void
Cache::flush()
{
    std::fill(meta_.begin(), meta_.end(), 0);
    resetOrder();
}

} // namespace rtm
