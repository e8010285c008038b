/**
 * @file
 * Result cache for experiment runs.
 *
 * Keys are a stable 64-bit FNV-1a hash over a canonical text
 * rendering of (workload, every SimConfig knob, every WorkloadParams
 * knob, code-version salt). Identical jobs therefore share one
 * simulation per process (in-memory tier) and — when a disk directory
 * is configured — across processes (on-disk tier), so re-running an
 * unchanged sweep is instant.
 *
 * Bump kCodeSalt in sim/code_salt.hh whenever a change alters
 * simulation results; stale disk entries then miss instead of lying.
 */

#ifndef ASAP_EXP_CACHE_HH
#define ASAP_EXP_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "sim/hash.hh" // stableHash64 (historically declared here)

namespace asap
{

/** Canonical text rendering of a job (hash input; also debuggable). */
std::string describeJob(const ExperimentJob &job);

/** Stable cache key ("exp-" + 16 hex digits) for a job. */
std::string jobKey(const ExperimentJob &job);

/** The running code's version salt (baked into every key and written
 *  into every disk entry; see the invalidation contract in
 *  src/exp/README.md). */
const char *cacheCodeSalt();

/**
 * Remove `*.tmp.*` droppings older than @p older_than_seconds that
 * writers killed mid-insert left in @p dir. Runs automatically when a
 * disk-tier cache is opened; exposed for tests and tooling.
 * @return number of files removed
 */
std::size_t cleanStaleCacheTmp(const std::string &dir,
                               double older_than_seconds);

/**
 * Tagged cache payload: what a job produced. Run jobs fill only the
 * stat bundle; Crash jobs additionally carry the checker verdict of
 * the injected failure.
 */
struct CachedResult
{
    JobKind kind = JobKind::Run;
    RunResult run;        //!< stats (at completion, or at the crash)
    CrashVerdict verdict; //!< meaningful when kind == Crash
};

/** Serialize a tagged entry as "field value" lines. */
std::string serializeEntry(const CachedResult &e);

/**
 * Parse serializeEntry() output; also accepts pre-hardening entries
 * without a codeSalt line.
 * @param why when non-null, set to a human-readable rejection reason
 *            (truncated / malformed / code-salt mismatch) on failure
 * @return false if the text is truncated, malformed, or written by a
 *         different code version
 */
bool deserializeEntry(const std::string &text, CachedResult &out,
                      std::string *why = nullptr);

/** Hit/miss counters, snapshot via ResultCache::stats(). */
struct CacheStats
{
    std::uint64_t memHits = 0;  //!< served from the in-process map
    std::uint64_t diskHits = 0; //!< loaded from the disk tier
    std::uint64_t misses = 0;   //!< had to simulate

    std::uint64_t hits() const { return memHits + diskHits; }
};

/**
 * Two-tier (memory, optional disk) result cache. Thread-safe; the
 * disk tier uses write-to-temp + rename so concurrent processes never
 * observe partial entries.
 */
class ResultCache
{
  public:
    /** @param disk_dir on-disk tier directory; empty disables it */
    explicit ResultCache(std::string disk_dir = "");

    /**
     * Look @p key up (memory first, then disk; disk hits are
     * promoted to memory). Counts a hit or miss.
     * @return true and fills @p out on a hit
     */
    bool lookup(const std::string &key, CachedResult &out);

    /** Store a freshly produced entry in both tiers. */
    void insert(const std::string &key, const CachedResult &e);

    /** Counter snapshot. */
    CacheStats stats() const;

    /** Drop the in-memory tier and reset counters (tests). */
    void clear();

  private:
    std::string diskPath(const std::string &key) const;

    mutable std::mutex mu;
    std::unordered_map<std::string, CachedResult> mem;
    std::string dir;
    CacheStats counters;
};

/**
 * The per-process cache every sweep shares by default. Its disk tier
 * is enabled by the ASAP_CACHE_DIR environment variable (read once).
 */
ResultCache &processCache();

} // namespace asap

#endif // ASAP_EXP_CACHE_HH
