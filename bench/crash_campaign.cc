/**
 * @file
 * Crash-injection campaign driver: the executable counterpart of the
 * Section VI proofs, at scale. Sweeps power-failure points (crash
 * tick x workload x model x core count) through the exp engine and
 * checks every post-crash NVM state against the recovery checker's
 * consistency predicate (dependency-closed committed-epoch frontier).
 *
 * Campaign mode (default): one verdict-table row per configuration,
 * a summary line, and a non-zero exit if any crash point was
 * inconsistent — each failure prints a single `--repro` command line
 * that replays it exactly.
 *
 * Repro mode (`--repro`): re-run one crash point and print the full
 * verdict (frontier, undo replays, violation message if any).
 */

#include "bench/campaign_main.hh"

int
main(int argc, char **argv)
{
    return asap::campaignMain(asap::JobKind::Crash, argc, argv);
}
