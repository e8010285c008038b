/**
 * @file
 * Simulation configuration.
 *
 * Collects every knob of the simulated system. Defaults reproduce
 * Table II of the paper (4-core, 2 GHz, 2 memory controllers, 32-entry
 * persist buffers / epoch tables / recovery tables, 16-entry WPQ,
 * PM read 175 ns / write 90 ns, 60 ns persist-buffer flush) plus the
 * HOPS polling fix described in Section VII (500-cycle poll period,
 * 50-cycle global timestamp register access).
 */

#ifndef ASAP_SIM_CONFIG_HH
#define ASAP_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace asap
{

/** The media profile that reproduces the seed's Table II constants
 *  (the default of SimConfig::mediaProfile; see src/media/). */
inline constexpr const char *kDefaultMediaProfile = "paper-table2";

/** Which persistence hardware model a run simulates. */
enum class ModelKind
{
    Baseline,   //!< Intel-style synchronous clwb + sfence
    Hops,       //!< HOPS buffered persistency, conservative flushing
    Asap,       //!< this paper: eager flushing + recovery tables
    Eadr,       //!< eADR/BBB ideal: persistence domain covers caches
};

/** ISA/language-level persistency model the workload runs under. */
enum class PersistencyModel
{
    Epoch,      //!< epoch persistency (EP): deps on conflicting accesses
    Release,    //!< release persistency (RP): deps only on acquire/release
};

/** Parse "baseline|hops|asap|eadr" (also "bbb"/"ideal" for eadr).
 *  @return false, leaving @p out alone, on anything else */
bool tryParseModelKind(const std::string &name, ModelKind &out);

/** Parse "ep|rp" (also "epoch"/"release").
 *  @return false, leaving @p out alone, on anything else */
bool tryParsePersistencyModel(const std::string &name,
                              PersistencyModel &out);

/** tryParseModelKind(), fatal on an unknown name. */
ModelKind parseModelKind(const std::string &name);

/** tryParsePersistencyModel(), fatal on an unknown name. */
PersistencyModel parsePersistencyModel(const std::string &name);

/** Printable names for the enums above. */
std::string toString(ModelKind kind);
std::string toString(PersistencyModel pm);

/** All parameters of one simulated system. */
struct SimConfig
{
    // --- topology -------------------------------------------------------
    unsigned numCores = 4;          //!< CPU cores (1 SW thread per core)
    unsigned numMCs = 2;            //!< memory controllers

    // --- model selection ------------------------------------------------
    ModelKind model = ModelKind::Asap;
    PersistencyModel persistency = PersistencyModel::Release;

    // --- cache hierarchy (latencies in cycles @2 GHz) --------------------
    Tick l1Latency = nsToTicks(1);      //!< private L1, 32 kB 8-way
    Tick l2Latency = nsToTicks(10);     //!< private L2, 2 MB 8-way
    Tick llcLatency = nsToTicks(20);    //!< shared LLC, 16 MB 16-way
    Tick cacheToCacheLatency = nsToTicks(30); //!< dirty-line transfer
    unsigned l1Sets = 64, l1Ways = 8;         //!< 64 * 8 * 64 B = 32 kB
    unsigned l2Sets = 4096, l2Ways = 8;       //!< 4096 * 8 * 64 B = 2 MB
    unsigned llcSets = 16384, llcWays = 16;   //!< 16384 * 16 * 64 B = 16 MB

    // --- NVM media backend ----------------------------------------------
    /**
     * Named media profile (see src/media/). The default,
     * kDefaultMediaProfile, reproduces the Table II constants below;
     * other profiles (dram, optane-dcpmm, cxl-dram, cxl-flash,
     * slow-nvm) own their timing and ignore the legacy knobs.
     */
    std::string mediaProfile = kDefaultMediaProfile;
    /** Per-profile parameter overrides; 0 (or negative for the
     *  bandwidth cap) means "use the profile's value". */
    Tick mediaReadLatency = 0;    //!< override media read service
    Tick mediaWriteLatency = 0;   //!< override media write service
    unsigned mediaBanks = 0;      //!< override per-MC bank count
    double mediaWriteGBps = -1.0; //!< override write cap (0 = uncap)
    /**
     * Heterogeneous media: comma-separated profile names assigned to
     * MCs round-robin (MC i gets list[i % len]). Empty (default) means
     * every MC uses mediaProfile. E.g. "optane-dcpmm,cxl-flash" on a
     * 4-MC system puts DCPMM behind MCs 0/2 and CXL flash behind 1/3.
     * The media* override knobs above apply to every entry.
     */
    std::string mediaPerMc;

    // --- NVM / memory controller ----------------------------------------
    Tick dramLatency = nsToTicks(80);     //!< volatile DRAM fill latency
    Tick pmReadLatency = nsToTicks(175);  //!< Table II: Read = 175 ns
    Tick pmWriteLatency = nsToTicks(90);  //!< Table II: Write = 90 ns
    unsigned wpqEntries = 16;             //!< write pending queue size
    /** Write-combining window: a WPQ entry becomes eligible for the
     *  media once it has aged this long (or under queue pressure),
     *  giving same-line writes a chance to coalesce. Writes are
     *  already durable in the WPQ, so this costs no visible latency. */
    Tick wpqCombineWindow = nsToTicks(250);
    unsigned nvmBanks = 4;                //!< per-MC write parallelism
    unsigned interleaveBytes = 256;       //!< MC address interleave grain
    unsigned xpBufferLines = 4096;        //!< MC-side line cache (XPBuffer)
    Tick xpBufferHitLatency = nsToTicks(10); //!< undo read hit service

    // --- persist path ----------------------------------------------------
    unsigned pbEntries = 32;            //!< persist buffer entries per core
    unsigned etEntries = 32;            //!< epoch table entries per core
    unsigned rtEntries = 32;            //!< recovery table entries per MC
    Tick pbFlushLatency = nsToTicks(60); //!< Table II: flush = 60 ns
    unsigned pbMaxInflight = 16;        //!< concurrent flushes per PB
    unsigned clwbMaxInflight = 8;       //!< line-fill buffers (baseline)
    Tick mcMessageLatency = nsToTicks(4);  //!< commit/ACK/NACK link hop
    Tick interCoreLatency = nsToTicks(8);  //!< CDR message between cores

    // --- HOPS specifics (Section VII polling fix) ------------------------
    Tick hopsPollPeriod = 500;      //!< cycles between global TS polls
    Tick hopsPollCost = 50;         //!< cycles per global TS access

    // --- eADR/BBB specifics ----------------------------------------------
    Tick eadrDfenceCost = 4;        //!< residual dfence pipeline cost

    // --- replay core ------------------------------------------------------
    unsigned coreIssueWidth = 2;    //!< simple-core ops retired per cycle

    // --- run control ------------------------------------------------------
    std::uint64_t seed = 42;        //!< deterministic RNG seed
    Tick maxRunTicks = maxTick;     //!< safety stop for runaway runs

    /**
     * Apply one "key=value" override (e.g.\ "numCores=8").
     * Unknown keys are fatal so typos cannot silently run defaults.
     */
    void override(const std::string &assignment);
};

} // namespace asap

#endif // ASAP_SIM_CONFIG_HH
