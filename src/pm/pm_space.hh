/**
 * @file
 * Simulated persistent-memory address space.
 *
 * Workload data structures execute functionally against this byte
 * store at trace-generation time. Addresses start at pmBase; a bump
 * allocator with size-class free lists hands out regions. A disjoint
 * address range provides volatile allocations (locks, scratch state)
 * that never enter the persist path.
 *
 * The capacity reserves simulated addresses, not host memory: the
 * store is zeroed on first touch (ZeroedArray), so resident memory is
 * only the pages a workload actually writes or reads.
 */

#ifndef ASAP_PM_PM_SPACE_HH
#define ASAP_PM_PM_SPACE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/log.hh"
#include "sim/zeroed_array.hh"

namespace asap
{

/** First byte of the simulated PM range. */
constexpr std::uint64_t pmBase = 0x10000000ULL;
/** First byte of the simulated volatile (DRAM) range. */
constexpr std::uint64_t dramBase = 0x900000000ULL;

/** True if @p addr lies in the persistent range. */
constexpr bool
isPmAddr(std::uint64_t addr)
{
    return addr >= pmBase && addr < dramBase;
}

/** Byte-addressable functional PM with an allocator. */
class PmSpace
{
  public:
    /** @param capacity_bytes simulated PM addresses to reserve */
    explicit PmSpace(std::size_t capacity_bytes = 64ull << 20)
        : bytes(capacity_bytes)
    {
    }

    /**
     * Allocate @p size bytes of persistent memory.
     * @param align alignment (power of two, default cache line)
     */
    std::uint64_t
    alloc(std::size_t size, std::size_t align = 64)
    {
        // Size-class free list first.
        const unsigned cls = sizeClass(size);
        if (cls < freeLists.size() && !freeLists[cls].empty() &&
            align <= 64) {
            std::uint64_t addr = freeLists[cls].back();
            freeLists[cls].pop_back();
            std::memset(ptr(addr), 0, classBytes(cls));
            return addr;
        }
        bump = (bump + align - 1) & ~(align - 1);
        fatal_if(bump + size > bytes.size(),
                 "simulated PM exhausted (", bytes.size(), " bytes)");
        std::uint64_t addr = pmBase + bump;
        bump += size;
        return addr;
    }

    /** Return a region to its size-class free list. */
    void
    free(std::uint64_t addr, std::size_t size)
    {
        const unsigned cls = sizeClass(size);
        if (cls >= freeLists.size())
            freeLists.resize(cls + 1);
        freeLists[cls].push_back(addr);
    }

    /** Allocate volatile (never persisted) space. */
    std::uint64_t
    allocVolatile(std::size_t size, std::size_t align = 64)
    {
        vbump = (vbump + align - 1) & ~(align - 1);
        std::uint64_t addr = dramBase + vbump;
        vbump += size;
        return addr;
    }

    std::uint64_t
    read64(std::uint64_t addr) const
    {
        std::uint64_t v;
        std::memcpy(&v, ptr(addr), 8);
        return v;
    }

    void
    write64(std::uint64_t addr, std::uint64_t v)
    {
        std::memcpy(ptr(addr), &v, 8);
    }

    std::uint8_t read8(std::uint64_t addr) const { return *ptr(addr); }
    void write8(std::uint64_t addr, std::uint8_t v) { *ptr(addr) = v; }

    void
    readBytes(std::uint64_t addr, void *dst, std::size_t n) const
    {
        std::memcpy(dst, ptr(addr), n);
    }

    void
    writeBytes(std::uint64_t addr, const void *src, std::size_t n)
    {
        std::memcpy(ptr(addr), src, n);
    }

    /** Bytes handed out so far (bump watermark). */
    std::size_t used() const { return bump; }

  private:
    static unsigned
    sizeClass(std::size_t size)
    {
        unsigned cls = 0;
        std::size_t c = 16;
        while (c < size) {
            c <<= 1;
            ++cls;
        }
        return cls;
    }

    static std::size_t classBytes(unsigned cls) { return 16ull << cls; }

    const std::uint8_t *
    ptr(std::uint64_t addr) const
    {
        panic_if(addr < pmBase || addr - pmBase >= bytes.size(),
                 "PM access out of range: ", addr);
        return bytes.data() + (addr - pmBase);
    }

    std::uint8_t *
    ptr(std::uint64_t addr)
    {
        panic_if(addr < pmBase || addr - pmBase >= bytes.size(),
                 "PM access out of range: ", addr);
        return bytes.data() + (addr - pmBase);
    }

    ZeroedArray<std::uint8_t> bytes;
    std::size_t bump = 0;
    std::size_t vbump = 0;
    std::vector<std::vector<std::uint64_t>> freeLists;
};

} // namespace asap

#endif // ASAP_PM_PM_SPACE_HH
