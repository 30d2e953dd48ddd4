/**
 * @file
 * Reproduction of the paper's CVA6 evaluation (Sec. 4.2): first the
 * full-flush fence.t variant (re-finding the known KILL_MISS / busy-
 * PTW channels of Wistoff et al.), then the microreset variant, where
 * AutoCC uncovers C1 (realigner consumes an invalid I$ payload), C2
 * (illegal PTW FSM transition under flush) and C3 (D$ refill landing
 * after the flush), each fixed and re-verified in turn.
 */

#ifndef AUTOCC_EVAL_CVA6_EVAL_HH
#define AUTOCC_EVAL_CVA6_EVAL_HH

#include <vector>

#include "duts/cva6.hh"
#include "eval/ladder.hh"

namespace autocc::eval
{

/** One step of the CVA6 ladder: CF (full flush), C1..C3 or "proof". */
using Cva6Step = LadderStep;

/** Options for the CVA6 run. */
struct Cva6EvalOptions
{
    unsigned threshold = 2;
    /** BMC bound of every check; the final design's proof reaches it. */
    unsigned maxDepth = 18;
    /** Include the full-flush phase (an extra, slower FPV run). */
    bool includeFullFlush = true;
    /** Portfolio workers per check (1 = sequential, 0 = auto). */
    unsigned jobs = 0;
    /** Observability sinks threaded into every check of the eval. */
    obs::Context obs;
};

/** Run the full evaluation ladder. */
std::vector<Cva6Step> runCva6Evaluation(
    const Cva6EvalOptions &options = {});

} // namespace autocc::eval

#endif // AUTOCC_EVAL_CVA6_EVAL_HH
