/**
 * @file
 * Trace serialization.
 *
 * Recording a workload is deterministic but not free; serializing a
 * TraceSet lets users record once and replay under every hardware
 * model and configuration (the record/replay workflow of the paper's
 * artifact, where disk images hold the workloads).
 *
 * Format (version 2): a fixed header (magic, version, key length,
 * thread count, FNV-1a checksum) followed by a generation-parameter
 * key string and per-thread op arrays in a fixed-width little-endian
 * layout. The embedded key lets a cache tier verify that a file found
 * under a hashed name really was generated from the expected
 * parameters; the checksum rejects truncated or corrupted files.
 * Version-1 files (no key, no checksum) still load.
 */

#ifndef ASAP_PM_TRACE_IO_HH
#define ASAP_PM_TRACE_IO_HH

#include <string>

#include "cpu/op.hh"

namespace asap
{

/** Write @p traces to @p path (fatal on I/O errors). @p key is the
 *  generation-parameter string embedded in the header (may be
 *  empty for standalone record/replay use). */
void saveTrace(const TraceSet &traces, const std::string &path,
               const std::string &key = "");

/** Read a trace set back (fatal on I/O or format errors). */
TraceSet loadTrace(const std::string &path);

/**
 * Write @p traces to @p path via write-to-temp + fsync + rename, so
 * concurrent readers (other sweep processes) never see a partial
 * file. Never fatal: a full disk or unwritable directory costs the
 * cache entry, not the run.
 * @return false (with a warning logged) if the write failed
 */
bool saveTraceAtomic(const TraceSet &traces, const std::string &path,
                     const std::string &key);

/**
 * Try to load @p path, accepting it only if it is a well-formed
 * version-2 trace whose embedded key equals @p expected_key and whose
 * checksum matches. Never fatal and never logs: a missing, stale,
 * truncated or corrupted file is simply not a cache hit.
 * @param why when non-null, set to a human-readable rejection reason
 * @return true and fill @p out on success
 */
bool tryLoadTraceForKey(const std::string &path,
                        const std::string &expected_key, TraceSet &out,
                        std::string *why = nullptr);

} // namespace asap

#endif // ASAP_PM_TRACE_IO_HH
