#include "eval/aes_eval.hh"

#include "eval/ladder.hh"

namespace autocc::eval
{

using core::AutoccOptions;
using duts::AesConfig;
using formal::EngineOptions;

AesEvalResult
runAesEvaluation(const AesEvalOptions &options)
{
    AesEvalResult result;
    AutoccOptions opts;
    opts.threshold = options.threshold;

    EngineOptions engine;
    engine.maxDepth = options.maxDepth;
    engine.jobs = options.jobs;
    engine.obs = options.obs;

    // Eval-level milestones in the unified event log (DESIGN.md §8):
    // the per-check events come from the engine; these mark phases.
    obs::EventLog *events = options.obs.events;

    AesConfig config;
    config.stages = options.stages;
    config.width = options.width;

    // A1: default FT, flush_done free.  The engine finds universes
    // that diverge because one had requests in flight at the switch.
    {
        config.declareIdleFlushDone = false;
        emitPhase(events, "aes: A1 discovery (default FT)");
        const core::RunResult run =
            core::runAutocc(duts::buildAes(config), opts, engine);
        emitPhase(events, "aes: A1 phase done",
                  {{"found_cex", run.foundCex() ? "1" : "0"},
                   {"depth", std::to_string(run.foundCex()
                                                ? run.check.cex->depth
                                                : 0)}});
        result.a1Found = run.foundCex();
        result.a1Seconds = run.check.seconds;
        if (run.foundCex()) {
            result.a1Depth = run.check.cex->depth;
            result.a1FailedAssert = run.check.cex->failedAssert;
            result.a1Blamed = run.cause.uarchNames();
            result.staticMissed = run.staticMissed;
            result.taintUnsound = run.taintUnsoundCex;
            result.absintUnsound = run.absintUnsoundCex;
        }
    }

    // Refinement: flush done := both pipelines idle.  Full proof.
    {
        config.declareIdleFlushDone = true;
        EngineOptions proofEngine = engine;
        proofEngine.maxInductionK =
            options.stages + options.threshold + 4;
        emitPhase(events, "aes: idle-flush refinement proof");
        const core::RunResult run =
            core::proveAutocc(duts::buildAes(config), opts, proofEngine);
        emitPhase(events, "aes: proof phase done",
                  {{"proved", run.proved() ? "1" : "0"},
                   {"induction_k", std::to_string(run.check.inductionK)}});
        result.proved = run.proved();
        result.inductionK = run.check.inductionK;
        result.proofSeconds = run.check.seconds;
    }
    return result;
}

} // namespace autocc::eval
