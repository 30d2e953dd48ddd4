/**
 * @file
 * What the three refine-until-proof ladders (Vscale, CVA6, MAPLE)
 * share: the step they report and how a check becomes one.
 *
 * Every iteration of a ladder runs at the ladder's proof depth.  A
 * check that finds a CEX becomes a refinement step; the first one
 * that finds none is the final design's bounded proof, so no check
 * is run twice.  At jobs = 1 the deepening loop stops at the first
 * CEX, so a CEX within a shallower per-iteration bound gives the same
 * step at the proof depth.  A CEX beyond such a bound now drives a
 * refinement, where a shallower ladder would have met it in its final
 * check and ended with an "unexpected CEX".
 */

#ifndef AUTOCC_EVAL_LADDER_HH
#define AUTOCC_EVAL_LADDER_HH

#include <string>
#include <utility>
#include <vector>

#include "core/autocc.hh"

namespace autocc::eval
{

/** One step of a ladder: a CEX and the refinement it drove, or the proof. */
struct LadderStep
{
    std::string id;          ///< per-ladder CEX id, or "proof"
    std::string description; ///< paper-style description
    std::string refinement;  ///< what the user adds after this CEX
    bool foundCex = false;
    unsigned depth = 0;      ///< CEX depth, or the bound a proof covers
    double seconds = 0.0;
    std::string failedAssert;
    std::vector<std::string> blamed; ///< FindCause uarch output
    /** Blamed state missing from the static candidate set (expect []). */
    std::vector<std::string> staticMissed;
    /** Discharge-claimed asserts the CEX violates (expect []). */
    std::vector<std::string> taintUnsound;
    /** Absint-reduction claims the CEX replay contradicts (expect []). */
    std::vector<std::string> absintUnsound;
};

/** The step of a check that found a CEX; id and texts are left empty. */
LadderStep cexStep(const core::RunResult &run);

/**
 * The ladder's last step, from the check of the final design: a
 * bounded proof, or "unexpected CEX" if that check found one.
 */
LadderStep proofStep(const core::RunResult &run, std::string description);

/** Whether some blamed state name contains `what`. */
bool blames(const std::vector<std::string> &blamed, const std::string &what);

/** Emit an eval phase milestone into `events` (no-op when null). */
void emitPhase(obs::EventLog *events, const std::string &message,
               std::vector<std::pair<std::string, std::string>> fields = {});

} // namespace autocc::eval

#endif // AUTOCC_EVAL_LADDER_HH
