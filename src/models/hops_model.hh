/**
 * @file
 * HOPS model (Nalli et al., ASPLOS'17), the paper's main comparison.
 *
 * Buffered persistency with per-core persist buffers and epoch tables
 * like ASAP, but with *conservative flushing*: only writes of the
 * oldest, safe epoch may flush; later epochs wait for every ACK of the
 * current epoch from all memory controllers (Figure 1a/1b). Cross-
 * thread dependencies resolve by polling a global timestamp register;
 * following Section VII we poll every 500 cycles with a 50-cycle
 * access cost instead of the original unrealistic 1-cycle poll.
 */

#ifndef ASAP_MODELS_HOPS_MODEL_HH
#define ASAP_MODELS_HOPS_MODEL_HH

#include <cstdint>

#include "persist/buffered_model.hh"

namespace asap
{

/** HOPS per-core persistence hardware. */
class HopsModel : public BufferedModel
{
  public:
    HopsModel(std::uint16_t thread, ModelContext &ctx);

  protected:
    /** Poll the source thread's commit state via the global register. */
    void awaitSource(std::uint16_t src_thread,
                     std::uint64_t src_epoch) override;

  private:
    // Hot counters resolved once at construction (see StatSet::counter).
    std::uint64_t *stTsUpdates;
    std::uint64_t *stPolls;
};

} // namespace asap

#endif // ASAP_MODELS_HOPS_MODEL_HH
