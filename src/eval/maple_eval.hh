/**
 * @file
 * Reproduction of the paper's MAPLE evaluation (Sec. 4.3): discover
 * M1 (output-buffer occupancy), refine it with the buffer-empty
 * assumption exactly as the paper does, discover M2 (TLB-enable flop)
 * and M3 (array base address), apply the upstream RTL fixes, and
 * confirm the CEXs disappear.
 */

#ifndef AUTOCC_EVAL_MAPLE_EVAL_HH
#define AUTOCC_EVAL_MAPLE_EVAL_HH

#include <vector>

#include "duts/maple.hh"
#include "eval/ladder.hh"

namespace autocc::eval
{

/** One step of the MAPLE ladder: M1 / M2 / M3 or "proof". */
using MapleStep = LadderStep;

/** Options for the MAPLE run. */
struct MapleEvalOptions
{
    unsigned threshold = 2;
    /** BMC bound of every check; the fixed design's proof reaches it. */
    unsigned maxDepth = 14;
    /** Portfolio workers per check (1 = sequential, 0 = auto). */
    unsigned jobs = 0;
    /** Observability sinks threaded into every check of the eval. */
    obs::Context obs;
};

/**
 * Install the paper's M1 refinement on a freshly built miter: assume
 * the NoC output buffer is empty in both universes when the spy
 * process is about to start.
 */
void assumeOutbufEmptyAtSwitch(core::Miter &miter);

/** Run the M1 -> M2 -> M3 -> proof sequence. */
std::vector<MapleStep> runMapleEvaluation(
    const MapleEvalOptions &options = {});

} // namespace autocc::eval

#endif // AUTOCC_EVAL_MAPLE_EVAL_HH
