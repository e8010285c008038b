/**
 * @file
 * Fixed-size array that starts as all-zero bytes and is cleared only
 * where it is first touched.
 *
 * The storage comes from std::calloc. Large requests (the 64 MB
 * simulated PM image, the LLC tag array) are served from fresh
 * anonymous pages, which the kernel zero-fills when they are first
 * touched, so a big, sparsely used table costs resident memory and
 * clearing time only for the pages the simulation actually uses. A
 * std::vector<T>(n) would write and fault in every element up front.
 */

#ifndef ASAP_SIM_ZEROED_ARRAY_HH
#define ASAP_SIM_ZEROED_ARRAY_HH

#include <cstddef>
#include <cstdlib>
#include <type_traits>

#include "sim/log.hh"

namespace asap
{

/**
 * Owning, non-copyable array of @p T whose bytes are all zero at
 * construction. All-zero bytes must be T's default state (true of
 * integers, bools and plain structs of them that default to zero).
 */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "elements come into being as zero-filled bytes");

  public:
    explicit ZeroedArray(std::size_t count)
        : len(count), elems(static_cast<T *>(std::calloc(count, sizeof(T))))
    {
        fatal_if(count != 0 && !elems, "cannot allocate ", count, " x ",
                 sizeof(T), " bytes");
    }

    ~ZeroedArray() { std::free(elems); }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    std::size_t size() const { return len; }
    T *data() { return elems; }
    const T *data() const { return elems; }
    T &operator[](std::size_t i) { return elems[i]; }
    const T *begin() const { return elems; }
    const T *end() const { return elems + len; }

  private:
    std::size_t len;
    T *elems;
};

} // namespace asap

#endif // ASAP_SIM_ZEROED_ARRAY_HH
