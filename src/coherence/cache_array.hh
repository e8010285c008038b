/**
 * @file
 * Set-associative tag array with LRU replacement.
 *
 * The timing model only needs hit/miss decisions and victim lines, so
 * the array stores tags (line addresses), not data. Data for PM lines
 * lives functionally in the traces and in NvmContents.
 *
 * Each way is one 64-bit tag word, (line << 2) | dirty << 1 | valid
 * (line addresses are byte addresses / 64, so the shift loses
 * nothing), and a 64-bit LRU stamp kept in a second array: a lookup
 * reads only the set's tag words, and the stamps are read only to
 * pick a victim. The set count is a power of two, so a line's set is
 * line & (sets - 1). Both arrays are zeroed on first touch
 * (ZeroedArray), so the sets a run never maps to cost no memory.
 */

#ifndef ASAP_COHERENCE_CACHE_ARRAY_HH
#define ASAP_COHERENCE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>

#include "sim/log.hh"
#include "sim/zeroed_array.hh"

namespace asap
{

/** LRU set-associative tag array. */
class CacheArray
{
  public:
    /** A line pushed out by an allocating miss. */
    struct Victim
    {
        bool valid = false;         //!< true if a line was evicted
        std::uint64_t line = 0;     //!< the evicted line address
        bool dirty = false;         //!< evicted line had been written
    };

    CacheArray(unsigned sets, unsigned ways)
        : numWays(ways), setMask(sets - 1),
          tags(static_cast<std::size_t>(sets) * ways),
          stamps(static_cast<std::size_t>(sets) * ways)
    {
        fatal_if(sets == 0 || ways == 0, "cache must have sets and ways");
        fatal_if((sets & (sets - 1)) != 0,
                 "cache set count must be a power of two, not ", sets);
    }

    /**
     * Look @p line up and allocate it on a miss, in one pass over its
     * set.
     *
     * On a hit with @p refresh, the line becomes the set's most
     * recently used and a write (@p is_write) marks it dirty; without
     * @p refresh a hit changes nothing (the line is only kept
     * resident). On a miss the line is allocated, dirty if
     * @p is_write, in the set's first invalid way, or else in place of
     * its least recently used line, which is reported in @p victim.
     *
     * @return true on a hit
     */
    bool
    probe(std::uint64_t line, bool is_write, bool refresh, Victim &victim)
    {
        const std::size_t base = (line & setMask) * numWays;
        std::uint64_t *tag = &tags[base];
        const std::uint64_t want = (line << 2) | kValid;
        unsigned way = numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if ((tag[w] & ~kDirty) == want) {
                if (refresh) {
                    stamps[base + w] = ++useClock;
                    if (is_write)
                        tag[w] |= kDirty;
                }
                return true;
            }
            if (way == numWays && !(tag[w] & kValid))
                way = w;
        }
        victim = Victim{};
        if (way == numWays) {
            const std::uint64_t *stamp = &stamps[base];
            way = 0;
            for (unsigned w = 1; w < numWays; ++w) {
                if (stamp[w] < stamp[way])
                    way = w;
            }
            victim = Victim{true, tag[way] >> 2, (tag[way] & kDirty) != 0};
        }
        tag[way] = want | (is_write ? kDirty : 0);
        stamps[base + way] = ++useClock;
        return false;
    }

    /** Drop @p line if resident (invalidation / drop on LLC evict). */
    void
    invalidate(std::uint64_t line)
    {
        if (std::uint64_t *t = find(line))
            *t &= ~kValid;
    }

    /** Clear the dirty bit (line was written back / downgraded). */
    void
    clean(std::uint64_t line)
    {
        if (std::uint64_t *t = find(line))
            *t &= ~kDirty;
    }

    /** Number of valid entries (test support). */
    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (std::uint64_t t : tags)
            n += t & kValid;
        return n;
    }

  private:
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

    std::uint64_t *
    find(std::uint64_t line)
    {
        std::uint64_t *tag = &tags[(line & setMask) * numWays];
        const std::uint64_t want = (line << 2) | kValid;
        for (unsigned w = 0; w < numWays; ++w) {
            if ((tag[w] & ~kDirty) == want)
                return &tag[w];
        }
        return nullptr;
    }

    unsigned numWays;
    std::uint64_t setMask;
    ZeroedArray<std::uint64_t> tags;   //!< (line << 2) | dirty | valid
    ZeroedArray<std::uint64_t> stamps; //!< LRU: larger = more recent
    std::uint64_t useClock = 0;
};

} // namespace asap

#endif // ASAP_COHERENCE_CACHE_ARRAY_HH
