#include "eval/cva6_eval.hh"

#include "base/logging.hh"

namespace autocc::eval
{

using core::AutoccOptions;
using core::RunResult;
using duts::Cva6Config;
using duts::Cva6Flush;
using formal::EngineOptions;

std::vector<Cva6Step>
runCva6Evaluation(const Cva6EvalOptions &options)
{
    std::vector<Cva6Step> steps;
    EngineOptions engine;
    engine.maxDepth = options.maxDepth;
    engine.jobs = options.jobs;
    engine.obs = options.obs;
    obs::EventLog *events = options.obs.events;
    AutoccOptions opts;
    opts.threshold = options.threshold;
    // The paper adds the OS-handled state (PC, regfile, CSR) upfront;
    // this subsystem slice carries the PC.
    for (const auto &name : duts::cva6ArchState())
        opts.archEq.insert(name);

    // ---- Phase 1: full-flush fence.t (known channels) ----------------
    if (options.includeFullFlush) {
        emitPhase(events, "cva6: full-flush fence.t validation");
        Cva6Config config;
        config.flush = Cva6Flush::FullFlush;
        // This phase validates the previously-known fence.t channels
        // (killed AXI transactions, busy PTW); the frontend payload
        // issue is a *new* finding of the microreset phase below, so
        // mask it here to surface the known ones at minimal depth.
        config.fixC1 = true;
        const RunResult run =
            core::runAutocc(duts::buildCva6(config), opts, engine);
        Cva6Step step = run.foundCex() ? cexStep(run) : Cva6Step{};
        step.seconds = run.check.seconds;
        step.id = "CF";
        if (blames(step.blamed, "frontend.ic_state")) {
            step.description =
                "outstanding AXI fetch killed: I$ in KILL_MISS vs IDLE";
        } else if (blames(step.blamed, "mmu.ptw")) {
            step.description = "PTW still busy when the flush completes";
        } else {
            step.description = "full-flush residual state divergence";
        }
        step.refinement = "adopt the microreset fence.t variant";
        steps.push_back(std::move(step));
    }

    // ---- Phase 2: microreset, fix C1 / C2 / C3 as they surface --------
    // The first iteration without a CEX is the fix validation.
    Cva6Config config;
    config.flush = Cva6Flush::Microreset;
    const auto validate = [&](const RunResult &run) {
        emitPhase(events, "cva6: fix validation",
                  {{"steps_so_far", std::to_string(steps.size())}});
        steps.push_back(
            proofStep(run, "fixed microreset: CEXs no longer found"));
    };
    for (unsigned iter = 0; iter < 6; ++iter) {
        emitPhase(events, "cva6: microreset iteration",
                  {{"iter", std::to_string(iter)}});
        const RunResult run =
            core::runAutocc(duts::buildCva6(config), opts, engine);
        if (!run.foundCex()) {
            validate(run);
            return steps;
        }
        Cva6Step step = cexStep(run);
        if (!config.fixC1 && blames(step.blamed, "frontend.ic_data")) {
            step.id = "C1";
            step.description =
                "leaks invalid I-Cache data to the next PC";
            step.refinement = "zero the payload when the line misses";
            config.fixC1 = true;
        } else if (!config.fixC2 && blames(step.blamed, "mmu.ptw")) {
            step.id = "C2";
            step.description = "wrong transition in the FSM of the PTW";
            step.refinement =
                "stay in WAIT_RVALID despite flush (cva6 PR #1184)";
            config.fixC2 = true;
        } else if (!config.fixC3 && blames(step.blamed, "dcache.")) {
            step.id = "C3";
            step.description =
                "valid D$ line after flush caused by the PTW/LSU refill";
            step.refinement =
                "drain D$ transactions around the write-back (ae79ec5)";
            config.fixC3 = true;
        } else {
            step.id = "C?";
            step.description = "unexpected CEX";
            warn("cva6 evaluation: CEX with unhandled blame set");
            steps.push_back(std::move(step));
            return steps;
        }
        steps.push_back(std::move(step));
    }
    validate(core::runAutocc(duts::buildCva6(config), opts, engine));
    return steps;
}

} // namespace autocc::eval
