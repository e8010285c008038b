/**
 * @file
 * Stable hashing.
 *
 * FNV-1a over bytes: the one hash every subsystem that must agree
 * across processes and hosts uses (result-cache keys, trace-file
 * names and checksums).
 * Never switch this to std::hash — its value is unspecified across
 * standard libraries and would silently invalidate every shared
 * artifact.
 */

#ifndef ASAP_SIM_HASH_HH
#define ASAP_SIM_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace asap
{

/** Stable FNV-1a 64-bit hash of a byte range. */
inline std::uint64_t
stableHash64(const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Stable FNV-1a 64-bit hash of a string. */
inline std::uint64_t
stableHash64(const std::string &text)
{
    return stableHash64(text.data(), text.size());
}

} // namespace asap

#endif // ASAP_SIM_HASH_HH
