/**
 * @file
 * The code-version salt.
 *
 * Every on-disk artifact whose content depends on simulator behaviour
 * carries it: result-cache keys and entries (src/exp/cache.cc) and
 * the generation key embedded in trace files (src/harness/runner.cc).
 * Bumping it turns everything older code wrote into a miss, so a
 * warm ASAP_CACHE_DIR or ASAP_TRACE_DIR never replays stale output.
 */

#ifndef ASAP_SIM_CODE_SALT_HH
#define ASAP_SIM_CODE_SALT_HH

namespace asap
{

/** Bump when a change alters simulation results or generated traces
 *  (invalidates disk entries and trace files written by older code).
 *
 *  v2: media-model subsystem (src/media/) — results gained media
 *  byte/queue-delay/bank-occupancy and XPBuffer hit/miss counters,
 *  and the key gained the media profile + override knobs.
 *
 *  v3: results gained eventsExecuted (kernel events per run, a
 *  deterministic stat); entries written by v2 would deserialize with
 *  it silently zero.
 *
 *  v4: the event kernel's same-tick tie-break changed from global
 *  scheduling order to (creator-domain send counter, domain id) so
 *  the domain-parallel engine can reproduce it exactly; same-tick
 *  cross-domain orderings (and therefore some stats) shift.
 *
 *  v5: the serving subsystem (src/serve/) — results gained the
 *  persist-latency tail fields (persistSamples/P50/P99/P999/Max) and
 *  serveRequests; the key conditionally gained mediaPerMc. Entries
 *  written by v4 would deserialize with them silently zero.
 *
 *  v6: the crash-state permuter (src/permute/) — JobKind::Permute
 *  jobs key the enumeration knobs (bound/seed/fault/state) and
 *  results gained the coverage fields (vStatesChecked &c.). Run and
 *  Crash keys are unchanged, but the bump keeps a v5 reader from
 *  choking on permute entries in a shared cache dir. Trace keys
 *  carry the salt from v6 on. */
inline constexpr const char *kCodeSalt = "asap-sim-v6";

} // namespace asap

#endif // ASAP_SIM_CODE_SALT_HH
