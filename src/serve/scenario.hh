/**
 * @file
 * Serving-scenario registry.
 *
 * A serving scenario is a named datacenter-style request mix that the
 * streaming generator (op_stream.hh) synthesizes incrementally: the
 * request shapes are the WHISPER-derived ones from
 * src/workloads/whisper.cc (memcached SET/GET, nstore WAL
 * transactions, vacation undo-log transactions), and the scenario
 * picks the key-popularity distribution, the arrival process and the
 * tenant mix layered on top.
 *
 * Scenario workload names carry the "serve:" prefix (e.g.
 * "serve:kv-zipf") so the exp engine, caches and sweeps can tell
 * streaming jobs from materialized ones by name alone.
 */

#ifndef ASAP_SERVE_SCENARIO_HH
#define ASAP_SERVE_SCENARIO_HH

#include <string>
#include <vector>

namespace asap
{

/** Workload-name prefix that marks a streaming serving scenario. */
inline constexpr const char *kServePrefix = "serve:";

/** Per-thread request classes a scenario can assign. */
enum class ServeClass
{
    KvCache,    //!< memcached-style SET/GET against a shared table
    Oltp,       //!< nstore-style WAL append + in-place tuple updates
    Txn,        //!< vacation-style undo-logged multi-row transactions
};

/** One named serving scenario. */
struct ServeScenario
{
    std::string name;         //!< bare name (no "serve:" prefix)
    std::string description;
    /** Zipfian skew of key popularity; 0 = uniform. */
    double zipfTheta = 0.0;
    /** Open-loop bursty arrivals (ON/OFF think-time gaps) instead of
     *  the closed-loop back-to-back default. */
    bool bursty = false;
    /** Tenant classes assigned round-robin to threads. Size 1 =
     *  homogeneous; each tenant owns a disjoint PM region. */
    std::vector<ServeClass> tenantClasses;

    /** Full workload name ("serve:" + name). */
    std::string workloadName() const { return kServePrefix + name; }
};

/** True if @p workload names a streaming serving scenario. */
bool isServeWorkload(const std::string &workload);

/** All registered scenarios, in presentation order. */
const std::vector<ServeScenario> &allServeScenarios();

/**
 * Find a scenario by workload name ("serve:x") or bare name ("x");
 * nullptr if unknown. For callers (like serve_bench's argument
 * parser) that must report bad names instead of dying on them.
 */
const ServeScenario *tryFindServeScenario(const std::string &workload);

/**
 * Find a scenario by workload name ("serve:x") or bare name ("x").
 * Fatal if unknown.
 */
const ServeScenario &findServeScenario(const std::string &workload);

} // namespace asap

#endif // ASAP_SERVE_SCENARIO_HH
