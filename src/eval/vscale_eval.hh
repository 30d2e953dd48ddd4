/**
 * @file
 * Reproduction of the paper's Vscale evaluation (Sec. 4.1, Table 2)
 * as an automated refinement loop: run the default AutoCC FT, use
 * FindCause on each CEX to decide the next refinement (declare the
 * blamed state architectural, or blackbox the CSR module when CSR
 * state is blamed — the paper's V2 action), and finish with a proof
 * once no CEX remains.  Each discovered CEX is classified against the
 * paper's V1–V5 taxonomy; discovery *order* follows this model's
 * trace depths, which differ from the original core's (see
 * EXPERIMENTS.md).
 *
 * Used by tests (to assert every step behaves) and by the Table 2
 * bench (to print the refinement table).
 */

#ifndef AUTOCC_EVAL_VSCALE_EVAL_HH
#define AUTOCC_EVAL_VSCALE_EVAL_HH

#include <vector>

#include "duts/vscale.hh"
#include "eval/ladder.hh"

namespace autocc::eval
{

/** One row of the Table 2 reproduction: S1.. or "proof". */
using VscaleStep = LadderStep;

/** Options for the run. */
struct VscaleEvalOptions
{
    unsigned threshold = 2;  ///< transfer period length
    unsigned maxDepth = 14;  ///< BMC bound of every step and the proof
    /** Portfolio workers per check (1 = sequential, 0 = auto). */
    unsigned jobs = 0;
    /** Observability sinks threaded into every check of the ladder. */
    obs::Context obs;
};

/** Run the whole ladder; the last step reports the bounded proof. */
std::vector<VscaleStep> runVscaleRefinement(
    const VscaleEvalOptions &options = {});

} // namespace autocc::eval

#endif // AUTOCC_EVAL_VSCALE_EVAL_HH
