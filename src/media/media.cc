#include "media/media.hh"

#include <cmath>
#include <utility>

#include "sim/log.hh"

namespace asap
{

namespace
{

/**
 * One registry row: the profile's story plus a fill function that
 * writes its defaults. `paper-table2` reads the legacy SimConfig
 * knobs so existing `pmWriteLatency=`/`nvmBanks=` overrides (and the
 * seed's byte-identical outputs) survive; every other profile owns
 * its parameters outright. All profiles inherit the host's volatile
 * DRAM fill latency — the media model governs the persistent side,
 * and host DRAM stays local whatever the PM tier is.
 */
struct ProfileEntry
{
    MediaProfileInfo info;
    void (*fill)(const SimConfig &cfg, MediaParams &p);
};

const ProfileEntry kProfiles[] = {
    {{"paper-table2",
      "Table II constants (default; reproduces the seed exactly)"},
     [](const SimConfig &cfg, MediaParams &p) {
         p.readLatency = cfg.pmReadLatency;
         p.writeLatency = cfg.pmWriteLatency;
         p.hitLatency = cfg.xpBufferHitLatency;
         p.banks = cfg.nvmBanks;
         p.writeGBps = 0.0;
     }},
    {{"dram",
      "battery-backed DRAM (NVDIMM-N): symmetric, fast, wide"},
     [](const SimConfig &, MediaParams &p) {
         p.readLatency = nsToTicks(80);
         p.writeLatency = nsToTicks(80);
         p.hitLatency = nsToTicks(5);
         p.banks = 16;
         p.writeGBps = 0.0;
     }},
    {{"optane-dcpmm",
      "measured Optane DCPMM: slower reads, ~2 GB/s write cap"},
     [](const SimConfig &, MediaParams &p) {
         p.readLatency = nsToTicks(305);
         p.writeLatency = nsToTicks(94);
         p.hitLatency = nsToTicks(10);
         p.banks = 4;
         p.writeGBps = 2.0;
     }},
    {{"cxl-dram",
      "DRAM behind a CXL switch: +~130 ns each way, ample bandwidth"},
     [](const SimConfig &, MediaParams &p) {
         p.readLatency = nsToTicks(210);
         p.writeLatency = nsToTicks(210);
         p.hitLatency = nsToTicks(25);
         p.banks = 16;
         p.writeGBps = 12.0;
     }},
    {{"cxl-flash",
      "flash behind CXL: microsecond-class, strongly asymmetric"},
     [](const SimConfig &, MediaParams &p) {
         p.readLatency = nsToTicks(1200);
         p.writeLatency = nsToTicks(2500);
         p.hitLatency = nsToTicks(50);
         p.banks = 8;
         p.writeGBps = 1.5;
     }},
    {{"slow-nvm",
      "pessimistic SCM: write-dominated latency, narrow and capped"},
     [](const SimConfig &, MediaParams &p) {
         p.readLatency = nsToTicks(400);
         p.writeLatency = nsToTicks(600);
         p.hitLatency = nsToTicks(10);
         p.banks = 2;
         p.writeGBps = 1.0;
     }},
};

const ProfileEntry *
findProfile(const std::string &name)
{
    for (const ProfileEntry &e : kProfiles) {
        if (e.info.name == name)
            return &e;
    }
    return nullptr;
}

/**
 * Default media implementation: fixed service latencies, a bank pool
 * sized by the profile, and the write-bandwidth cap enforced as
 * queueing delay. The cap is a single next-free cursor: each write
 * reserves bytes / GBps worth of media-pipeline time, and a write
 * issued before the cursor waits out the difference (extending its
 * bank's occupancy). With the cap disabled the grant is always the
 * bare write latency — bit-for-bit the pre-media behaviour.
 */
class QueuedMediaModel : public MediaModel
{
  public:
    explicit QueuedMediaModel(MediaParams p) : MediaModel(std::move(p))
    {
        if (p_.writeGBps > 0.0) {
            // ticks per byte = (1 / GBps) ns/byte * clockGHz.
            ticksPerByte_ = clockGHz / p_.writeGBps;
        }
    }

    WriteGrant
    startWrite(Tick now, unsigned bytes) override
    {
        WriteGrant g;
        Tick start = now;
        if (ticksPerByte_ > 0.0) {
            if (pipeFreeAt_ > now) {
                start = pipeFreeAt_;
                g.queueDelay = start - now;
            }
            const Tick cost = static_cast<Tick>(
                std::llround(ticksPerByte_ * bytes));
            pipeFreeAt_ = start + cost;
        }
        g.serviceLatency = g.queueDelay + p_.writeLatency;
        return g;
    }

  private:
    double ticksPerByte_ = 0.0; //!< 0 = cap disabled
    Tick pipeFreeAt_ = 0;       //!< media write pipeline free time
};

} // namespace

const std::vector<MediaProfileInfo> &
allMediaProfiles()
{
    static const std::vector<MediaProfileInfo> infos = [] {
        std::vector<MediaProfileInfo> v;
        for (const ProfileEntry &e : kProfiles)
            v.push_back(e.info);
        return v;
    }();
    return infos;
}

bool
isMediaProfile(const std::string &name)
{
    return findProfile(name) != nullptr;
}

namespace
{

MediaParams
resolveNamedProfile(const SimConfig &cfg, const std::string &name)
{
    const ProfileEntry *entry = findProfile(name);
    if (!entry) {
        std::string known;
        for (const ProfileEntry &e : kProfiles)
            known += (known.empty() ? "" : "|") + e.info.name;
        fatal("unknown media profile '", name, "' (want ", known, ")");
    }
    MediaParams p;
    p.profile = entry->info.name;
    p.dramFillLatency = cfg.dramLatency;
    entry->fill(cfg, p);
    // Per-profile parameter overrides (the media* SimConfig knobs).
    if (cfg.mediaReadLatency != 0)
        p.readLatency = cfg.mediaReadLatency;
    if (cfg.mediaWriteLatency != 0)
        p.writeLatency = cfg.mediaWriteLatency;
    if (cfg.mediaBanks != 0)
        p.banks = cfg.mediaBanks;
    if (cfg.mediaWriteGBps >= 0.0)
        p.writeGBps = cfg.mediaWriteGBps;
    fatal_if(p.banks == 0, "media profile '", p.profile,
             "' resolved to zero banks");
    return p;
}

} // namespace

MediaParams
resolveMediaParams(const SimConfig &cfg)
{
    return resolveNamedProfile(cfg, cfg.mediaProfile);
}

MediaParams
resolveMediaParamsFor(const SimConfig &cfg, unsigned mcId)
{
    if (cfg.mediaPerMc.empty())
        return resolveMediaParams(cfg);
    std::vector<std::string> names;
    std::size_t pos = 0;
    while (pos <= cfg.mediaPerMc.size()) {
        std::size_t comma = cfg.mediaPerMc.find(',', pos);
        if (comma == std::string::npos)
            comma = cfg.mediaPerMc.size();
        names.push_back(cfg.mediaPerMc.substr(pos, comma - pos));
        pos = comma + 1;
    }
    fatal_if(names.empty(), "mediaPerMc is set but empty");
    for (const std::string &n : names)
        fatal_if(n.empty(), "mediaPerMc '", cfg.mediaPerMc,
                 "' has an empty entry");
    return resolveNamedProfile(cfg, names[mcId % names.size()]);
}

std::unique_ptr<MediaModel>
makeMediaModel(const SimConfig &cfg)
{
    return std::make_unique<QueuedMediaModel>(resolveMediaParams(cfg));
}

std::unique_ptr<MediaModel>
makeMediaModelFor(const SimConfig &cfg, unsigned mcId)
{
    return std::make_unique<QueuedMediaModel>(
        resolveMediaParamsFor(cfg, mcId));
}

} // namespace asap
