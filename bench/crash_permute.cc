/**
 * @file
 * Exhaustive crash-state permuter driver. Where bench/crash_campaign
 * checks the single canonical post-crash NVM state per power-failure
 * point, this bench enumerates *every* reachable post-crash state at
 * each point (src/permute/): each subset of the in-flight commit
 * application and recovery-record effects that the crash could have
 * frozen, checked independently against the recovery checker's
 * consistency predicate.
 *
 * Campaign mode (default): one verdict-table row per configuration
 * with coverage columns (states checked / states reachable), a
 * summary line, and a non-zero exit if any enumerated state at any
 * crash point was inconsistent — each failure prints one `--repro`
 * command, pinned with `--state <hexmask>`, that replays exactly that
 * state.
 *
 * Repro mode (`--repro`): re-run one crash point (optionally one
 * state via --state) and print the full verdict with coverage.
 *
 * Enumeration is exhaustive below --bound reachable states and
 * seeded-sampled above it (corners always included); truncation is
 * reported loudly in the table and the artifact, never silently.
 */

#include "bench/campaign_main.hh"

int
main(int argc, char **argv)
{
    return asap::campaignMain(asap::JobKind::Permute, argc, argv);
}
