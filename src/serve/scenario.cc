#include "serve/scenario.hh"

#include <cstring>

#include "sim/log.hh"

namespace asap
{

namespace
{

const std::vector<ServeScenario> &
registry()
{
    static const std::vector<ServeScenario> scenarios = {
        {"kv-zipf",
         "KV cache serving, Zipfian key popularity (YCSB theta=0.99)",
         0.99, false, {ServeClass::KvCache}},
        {"kv-uniform",
         "KV cache serving, uniform key popularity",
         0.0, false, {ServeClass::KvCache}},
        {"kv-bursty",
         "KV cache serving, Zipfian keys, open-loop ON/OFF bursts",
         0.99, true, {ServeClass::KvCache}},
        {"tenant-mix",
         "multi-tenant: KV cache + OLTP WAL + undo-txn tenants, "
         "Zipfian keys",
         0.99, false,
         {ServeClass::KvCache, ServeClass::Oltp, ServeClass::Txn}},
    };
    return scenarios;
}

} // namespace

bool
isServeWorkload(const std::string &workload)
{
    return workload.rfind(kServePrefix, 0) == 0;
}

const std::vector<ServeScenario> &
allServeScenarios()
{
    return registry();
}

const ServeScenario *
tryFindServeScenario(const std::string &workload)
{
    std::string bare = workload;
    if (isServeWorkload(workload))
        bare = workload.substr(std::strlen(kServePrefix));
    for (const ServeScenario &sc : registry()) {
        if (sc.name == bare)
            return &sc;
    }
    return nullptr;
}

const ServeScenario &
findServeScenario(const std::string &workload)
{
    if (const ServeScenario *sc = tryFindServeScenario(workload))
        return *sc;
    std::string known;
    for (const ServeScenario &sc : registry()) {
        if (!known.empty())
            known += '|';
        known += sc.workloadName();
    }
    fatal("unknown serving scenario '", workload, "' (want ", known,
          ")");
    return registry().front(); // unreachable
}

} // namespace asap
