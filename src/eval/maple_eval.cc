#include "eval/maple_eval.hh"

#include "base/logging.hh"

namespace autocc::eval
{

using core::AutoccOptions;
using core::Miter;
using duts::MapleConfig;
using duts::MapleSignals;
using formal::EngineOptions;
using rtl::NodeId;

void
assumeOutbufEmptyAtSwitch(Miter &miter)
{
    rtl::Netlist &nl = miter.netlist;
    const NodeId spyStarts = nl.signal("spy_starts");
    const NodeId emptyA =
        nl.signal(miter.prefixA + "." + MapleSignals::outbufEmpty);
    const NodeId emptyB =
        nl.signal(miter.prefixB + "." + MapleSignals::outbufEmpty);
    nl.addAssume("am__outbuf_empty_at_switch",
                 nl.orOf(nl.notOf(spyStarts), nl.andOf(emptyA, emptyB)));
}

namespace
{

core::RunResult
runOnce(const MapleConfig &config, const AutoccOptions &opts,
        const EngineOptions &engine, bool buf_assumption)
{
    core::RunResult result;
    const rtl::Netlist dut = duts::buildMaple(config);
    result.leaks = analysis::analyzeLeakCandidates(dut);
    result.miter = core::buildMiter(dut, opts);
    if (buf_assumption)
        assumeOutbufEmptyAtSwitch(result.miter);
    result.check =
        formal::check(result.miter.netlist, engine, &result.portfolio);
    if (result.check.foundCex()) {
        result.cause = core::findCause(result.miter, *result.check.cex);
        result.staticMissed =
            result.leaks.missedBy(result.cause.uarchNames());
    }
    return result;
}

} // namespace

std::vector<MapleStep>
runMapleEvaluation(const MapleEvalOptions &options)
{
    std::vector<MapleStep> steps;
    EngineOptions engine;
    engine.maxDepth = options.maxDepth;
    engine.jobs = options.jobs;
    engine.obs = options.obs;
    AutoccOptions opts;
    opts.threshold = options.threshold;
    obs::EventLog *events = options.obs.events;

    MapleConfig config;
    bool bufAssumption = false;

    // Fix validation: the fixed RTL (plus the M1 assumption) yields a
    // bounded proof, confirming the channels are closed.
    const auto validate = [&](const core::RunResult &run) {
        emitPhase(events, "maple: fix validation",
                  {{"steps_so_far", std::to_string(steps.size())}});
        steps.push_back(proofStep(run, "fixed RTL: CEXs no longer found"));
    };

    for (unsigned iter = 0; iter < 6; ++iter) {
        emitPhase(events, "maple: refinement iteration",
                  {{"iter", std::to_string(iter)}});
        const core::RunResult run =
            runOnce(config, opts, engine, bufAssumption);
        if (!run.foundCex()) {
            // The validation check carries the M1 assumption: reuse
            // this one only if it already did.
            if (bufAssumption)
                validate(run);
            else
                validate(runOnce(config, opts, engine, true));
            return steps;
        }

        MapleStep step = cexStep(run);
        // One user action per CEX, mirroring the paper's responses.
        if (!config.fixTlbEnable &&
            blames(step.blamed, MapleSignals::tlbEnable)) {
            step.id = "M2";
            step.description = "leak whether the TLB was disabled";
            step.refinement = "RTL fix: cleanup resets tlb_en (fa614fc)";
            config.fixTlbEnable = true;
        } else if (!config.fixArrayBase &&
                   blames(step.blamed, MapleSignals::arrayBase)) {
            step.id = "M3";
            step.description = "leak the value of a configuration "
                               "register (array base)";
            step.refinement =
                "RTL fix: cleanup resets array_base (04a54d5)";
            config.fixArrayBase = true;
        } else if (!bufAssumption && blames(step.blamed, "noc.outbuf")) {
            step.id = "M1";
            step.description =
                "requests parked in the NoC output buffer survive "
                "the switch";
            step.refinement =
                "assume the output buffer is empty at the switch";
            bufAssumption = true;
        } else {
            step.id = "M?";
            step.description = "unexpected CEX";
            warn("maple evaluation: CEX with unhandled blame set");
            steps.push_back(std::move(step));
            return steps;
        }
        steps.push_back(std::move(step));
    }
    validate(runOnce(config, opts, engine, true));
    return steps;
}

} // namespace autocc::eval
