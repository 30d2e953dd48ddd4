#include "eval/ladder.hh"

namespace autocc::eval
{

LadderStep
cexStep(const core::RunResult &run)
{
    LadderStep step;
    step.foundCex = true;
    step.depth = run.check.cex->depth;
    step.seconds = run.check.seconds;
    step.failedAssert = run.check.cex->failedAssert;
    step.blamed = run.cause.uarchNames();
    step.staticMissed = run.staticMissed;
    step.taintUnsound = run.taintUnsoundCex;
    step.absintUnsound = run.absintUnsoundCex;
    return step;
}

LadderStep
proofStep(const core::RunResult &run, std::string description)
{
    LadderStep step = run.foundCex() ? cexStep(run) : LadderStep{};
    step.id = "proof";
    step.description = std::move(description);
    step.depth = run.check.bound;
    step.seconds = run.check.seconds;
    step.refinement = run.foundCex()
        ? "unexpected CEX"
        : "bounded proof (depth " + std::to_string(run.check.bound) + ")";
    return step;
}

bool
blames(const std::vector<std::string> &blamed, const std::string &what)
{
    for (const auto &name : blamed) {
        if (name.find(what) != std::string::npos)
            return true;
    }
    return false;
}

void
emitPhase(obs::EventLog *events, const std::string &message,
          std::vector<std::pair<std::string, std::string>> fields)
{
    if (events) {
        events->emit(obs::EventSeverity::Info, "eval", message,
                     std::move(fields));
    }
}

} // namespace autocc::eval
