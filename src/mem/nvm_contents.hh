/**
 * @file
 * Functional contents of the NVM devices.
 *
 * Tracks, per line, the token of the most recent write that actually
 * reached the media. This is the state a crash preserves (together
 * with whatever the ADR domain flushes) and the state the recovery
 * checker inspects. Lines live in a FlatMap (sim/flat_map.hh), so a
 * media write or read is one probe of a flat array; concurrent read()
 * calls from the permuter's segment workers are safe, as read() never
 * mutates the table.
 */

#ifndef ASAP_MEM_NVM_CONTENTS_HH
#define ASAP_MEM_NVM_CONTENTS_HH

#include <cstdint>

#include "sim/flat_map.hh"

namespace asap
{

/** Line-granular functional NVM state. */
class NvmContents
{
  public:
    /** Write @p value to @p line (a media write, post-WPQ). */
    void
    write(std::uint64_t line, std::uint64_t value)
    {
        lines[line] = value;
    }

    /** Read the current media value (0 = never written). */
    std::uint64_t
    read(std::uint64_t line) const
    {
        const std::uint64_t *v = lines.find(line);
        return v ? *v : 0;
    }

    /** True once the line has been written at least once. */
    bool
    present(std::uint64_t line) const
    {
        return lines.find(line) != nullptr;
    }

    /**
     * Call @p f(line, value) for every written line, in no particular
     * order (crash verdicts count the surviving non-zero lines).
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        lines.forEach(f);
    }

  private:
    FlatMap<std::uint64_t> lines;
};

} // namespace asap

#endif // ASAP_MEM_NVM_CONTENTS_HH
