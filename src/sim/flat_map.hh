/**
 * @file
 * Open-addressing hash map keyed by 64-bit line addresses.
 *
 * The simulated memory system looks a line up on every access (the
 * coherence directory, the NVM image, the XPBuffer index). A node-based
 * std::unordered_map pays a pointer chase and, on insert, an allocation
 * per line; this map keeps keys and values side by side in one array:
 * power-of-two slot count, linear probing, backward-shift erase (no
 * tombstones), and growth to twice the slots once an insert would take
 * the load past 3/4. Once the table has grown to a run's footprint,
 * lookups, inserts and erases allocate nothing.
 *
 * The key ~0 marks an empty slot, so it cannot be stored; line
 * addresses (byte address / 64) never reach it. Iteration order
 * (forEach) follows the hash, not insertion: callers that need an
 * order must impose one.
 */

#ifndef ASAP_SIM_FLAT_MAP_HH
#define ASAP_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace asap
{

/** Map from 64-bit keys (never ~0) to default-constructible @p V. */
template <typename V>
class FlatMap
{
  public:
    /** Key value that marks an empty slot. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /** Slot count of the first allocation. */
    static constexpr std::size_t kMinSlots = 16;

    /** Home-slot hash; the home slot is hash(key) & (slots - 1). */
    static std::uint64_t
    hash(std::uint64_t key)
    {
        key *= 0x9e3779b97f4a7c15ull;
        return key ^ (key >> 32);
    }

    /** Value stored under @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Value under @p key, inserted as V{} if absent. May grow the
     *  table, which moves every value: pointers from find() and
     *  references from earlier calls are invalidated. */
    V &
    operator[](std::uint64_t key)
    {
        panic_if(key == kEmptyKey, "FlatMap cannot store key ~0");
        if ((count + 1) * 4 > slots.size() * 3)
            rehash(slots.empty() ? kMinSlots : slots.size() * 2);
        std::size_t i = hash(key) & mask;
        for (; slots[i].key != kEmptyKey; i = (i + 1) & mask) {
            if (slots[i].key == key)
                return slots[i].value;
        }
        slots[i].key = key;
        ++count;
        return slots[i].value;
    }

    /** Remove @p key; returns false if it was absent. */
    bool
    erase(std::uint64_t key)
    {
        if (slots.empty())
            return false;
        std::size_t hole = hash(key) & mask;
        for (; slots[hole].key != key; hole = (hole + 1) & mask) {
            if (slots[hole].key == kEmptyKey)
                return false;
        }
        // Backward shift: pull each later entry of the probe run into
        // the hole unless its home lies cyclically after the hole.
        for (std::size_t j = (hole + 1) & mask; slots[j].key != kEmptyKey;
             j = (j + 1) & mask) {
            const std::size_t home = hash(slots[j].key) & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        slots[hole] = Slot{};
        --count;
        return true;
    }

    /** Drop every entry; the slot array keeps its size. */
    void
    clear()
    {
        for (Slot &s : slots)
            s = Slot{};
        count = 0;
    }

    std::size_t size() const { return count; }

    /** Slots allocated (test support: growth and wrap-around). */
    std::size_t capacity() const { return slots.size(); }

    /** Call @p f(key, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots) {
            if (s.key != kEmptyKey)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots);
        mask = n - 1;
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = hash(s.key) & mask;
            while (slots[i].key != kEmptyKey)
                i = (i + 1) & mask;
            slots[i] = std::move(s);
        }
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t count = 0;
};

} // namespace asap

#endif // ASAP_SIM_FLAT_MAP_HH
