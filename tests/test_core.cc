/**
 * @file
 * Tests for the AutoCC core flow on the toy accelerator: miter
 * construction, covert-channel discovery, cause analysis, fix
 * validation, CEX replay on the simulator, SVA emission, and the two
 * flush-synthesis algorithms.
 */

#include <gtest/gtest.h>

#include "core/autocc.hh"
#include "duts/toy.hh"
#include "sim/simulator.hh"

namespace autocc::core
{

using duts::ToyAccelRegs;
using formal::CheckStatus;
using formal::EngineOptions;
using rtl::FlushPlan;
using rtl::Netlist;

namespace
{

AutoccOptions
toyOptions()
{
    AutoccOptions opts;
    opts.threshold = 2;
    return opts;
}

EngineOptions
toyEngine()
{
    EngineOptions engine;
    engine.maxDepth = 12;
    return engine;
}

} // namespace

TEST(Miter, StructureOfGeneratedFt)
{
    const Netlist dut = duts::buildToyAccelShipped();
    const Miter miter = buildMiter(dut, toyOptions());
    const Netlist &nl = miter.netlist;

    // Two instances: every DUT register appears per universe.
    EXPECT_NE(nl.findSignal("ua.cfg"), rtl::invalidNode);
    EXPECT_NE(nl.findSignal("ub.cfg"), rtl::invalidNode);
    // Plus spy bookkeeping.
    EXPECT_NE(nl.findSignal("spy_mode"), rtl::invalidNode);
    EXPECT_NE(nl.findSignal("eq_cnt"), rtl::invalidNode);
    EXPECT_NE(nl.findSignal("transfer_cond"), rtl::invalidNode);
    EXPECT_NE(nl.findSignal("flush_done_both"), rtl::invalidNode);

    // One assumption per replicated input, one assertion per output.
    EXPECT_EQ(nl.assumes().size(), 4u); // req_valid, req_op, req_data, flush
    EXPECT_EQ(nl.asserts().size(), 2u); // resp_valid, resp_data
    EXPECT_FALSE(miter.flushDoneFree);

    // Transaction payloads are marked gated.
    bool gated = false;
    for (const auto &h : miter.handling) {
        if (h.port == "resp_data")
            gated = h.validPort == "resp_valid";
    }
    EXPECT_TRUE(gated);
}

TEST(Autocc, FindsCfgCovertChannel)
{
    const RunResult r =
        runAutocc(duts::buildToyAccelShipped(), toyOptions(), toyEngine());
    ASSERT_TRUE(r.foundCex());
    EXPECT_EQ(r.check.cex->failedAssert, "as__resp_data_eq");

    // FindCause blames an unflushed register (cfg or acc — both leak).
    ASSERT_FALSE(r.cause.neverEntersSpyMode);
    const auto names = r.cause.uarchNames();
    const bool blamesLeak =
        std::find(names.begin(), names.end(), ToyAccelRegs::cfg) !=
            names.end() ||
        std::find(names.begin(), names.end(), ToyAccelRegs::acc) !=
            names.end();
    EXPECT_TRUE(blamesLeak) << r.cause.render();
}

TEST(Autocc, FixedDesignHasNoCex)
{
    const RunResult r =
        runAutocc(duts::buildToyAccelFixed(), toyOptions(), toyEngine());
    EXPECT_FALSE(r.foundCex()) << describe(r.check);
    EXPECT_EQ(r.check.status, CheckStatus::BoundedProof);
}

TEST(Autocc, FixedDesignFullProof)
{
    // Plain k-induction cannot prove miter properties (arbitrary
    // initial states fake unequal-but-unreachable configurations);
    // the Houdini-strengthened prover reaches a full proof.
    const RunResult r =
        proveAutocc(duts::buildToyAccelFixed(), toyOptions(), toyEngine());
    EXPECT_TRUE(r.proved()) << describe(r.check);
}

TEST(Autocc, FullProofStillReportsCexOnBuggyDesign)
{
    const RunResult r =
        proveAutocc(duts::buildToyAccelShipped(), toyOptions(), toyEngine());
    ASSERT_TRUE(r.foundCex());
    EXPECT_EQ(r.check.cex->failedAssert, "as__resp_data_eq");
}

TEST(Autocc, CexReplaysOnSimulator)
{
    const Netlist dut = duts::buildToyAccelShipped();
    const RunResult r = runAutocc(dut, toyOptions(), toyEngine());
    ASSERT_TRUE(r.foundCex());

    // Replay the formal CEX on the cycle simulator: the divergence
    // must reproduce exactly (cross-engine validation).
    sim::Simulator simulator(r.miter.netlist);
    const auto &trace = r.check.cex->trace;
    bool reproduced = false;
    for (size_t t = 0; t < trace.depth(); ++t) {
        for (const auto &[name, value] : trace.inputs[t])
            simulator.poke(name, value);
        simulator.eval();
        EXPECT_EQ(simulator.peek("spy_mode"),
                  trace.signalAt(t, "spy_mode"));
        if (simulator.peek("spy_mode") &&
            simulator.peek("ua.resp_valid") &&
            simulator.peek("ua.resp_data") !=
                simulator.peek("ub.resp_data")) {
            reproduced = true;
        }
        simulator.step();
    }
    EXPECT_TRUE(reproduced);
}

TEST(Autocc, ArchEqRefinementSuppressesCex)
{
    // Declaring cfg+acc architectural (i.e. "the OS swaps them") is
    // the V1-style refinement: the CEX must disappear.
    AutoccOptions opts = toyOptions();
    opts.archEq = {ToyAccelRegs::cfg, ToyAccelRegs::acc};
    const RunResult r =
        runAutocc(duts::buildToyAccelShipped(), opts, toyEngine());
    EXPECT_FALSE(r.foundCex()) << describe(r.check);
}

TEST(Autocc, FreeFlushDoneWhenUndeclared)
{
    // A DUT without a flush-done signal gets the free ('x) variant.
    Netlist dut("nofd");
    const auto in = dut.input("in", 4);
    const auto q = dut.reg("q", 4, 0);
    dut.connectReg(q, in);
    dut.output("out", q);
    const Miter miter = buildMiter(dut, toyOptions());
    EXPECT_TRUE(miter.flushDoneFree);

    // q is overwritten by (equal) inputs each cycle, so even with the
    // free flush_done there is no observable difference in spy mode.
    formal::CheckResult check =
        formal::checkSafety(miter.netlist, toyEngine());
    EXPECT_FALSE(check.foundCex()) << describe(check);
}

TEST(Autocc, FreeFlushDoneCatchesStaleState)
{
    // Same DUT but q only updates when an enable fires and is only
    // visible when `sel` is raised: the stale state can stay hidden
    // through the transfer period and leak in spy mode -> CEX.
    Netlist dut("stale");
    const auto en = dut.input("en", 1);
    const auto sel = dut.input("sel", 1);
    const auto in = dut.input("in", 4);
    const auto q = dut.reg("q", 4, 0);
    dut.connectReg(q, dut.mux(en, in, q));
    dut.output("out", dut.mux(sel, q, dut.constant(4, 0)));
    const Miter miter = buildMiter(dut, toyOptions());
    formal::CheckResult check =
        formal::checkSafety(miter.netlist, toyEngine());
    ASSERT_TRUE(check.foundCex());
    EXPECT_EQ(check.cex->failedAssert, "as__out_eq");
}

TEST(Sva, PropertyFileMatchesListingShape)
{
    const Netlist dut = duts::buildToyAccelShipped();
    AutoccOptions opts = toyOptions();
    opts.archEq = {ToyAccelRegs::cfg};
    const Miter miter = buildMiter(dut, opts);
    const std::string sva = emitSvaPropertyFile(miter);

    EXPECT_NE(sva.find("localparam THRESHOLD = 2;"), std::string::npos);
    EXPECT_NE(sva.find("spy_mode <= spy_starts || spy_mode;"),
              std::string::npos);
    EXPECT_NE(sva.find("assume property (spy_mode |-> req_data_eq)"),
              std::string::npos);
    EXPECT_NE(sva.find("assert property (spy_mode |-> resp_data_eq)"),
              std::string::npos);
    // Payload gating.
    EXPECT_NE(sva.find("!ua.resp_valid || (ua.resp_data == ub.resp_data)"),
              std::string::npos);
    // User arch refinement present.
    EXPECT_NE(sva.find("ua.cfg == ub.cfg"), std::string::npos);
}

TEST(Sva, WrapperListsPorts)
{
    const Netlist dut = duts::buildToyAccelShipped();
    const Miter miter = buildMiter(dut, toyOptions());
    const std::string wrapper = emitSvaWrapper(miter, dut);
    EXPECT_NE(wrapper.find("module autocc_wrapper"), std::string::npos);
    EXPECT_NE(wrapper.find("req_data_ua"), std::string::npos);
    EXPECT_NE(wrapper.find("req_data_ub"), std::string::npos);
    EXPECT_NE(wrapper.find("toy_accel ua ("), std::string::npos);
}

// ----------------------------------------------------------------------
// Flush synthesis (Algorithms 1 and 2)
// ----------------------------------------------------------------------

TEST(FlushSynth, IncrementalConvergesToProof)
{
    const std::vector<std::string> candidates = ToyAccelRegs::all();
    const FlushSynthResult r = synthesizeIncremental(
        duts::buildToyAccel, candidates, toyOptions(), toyEngine());
    EXPECT_TRUE(r.proved);
    EXPECT_GE(r.fpvCalls, 2u);
    // The real leaks must be covered.
    EXPECT_TRUE(r.plan.contains(ToyAccelRegs::cfg));
    EXPECT_TRUE(r.plan.contains(ToyAccelRegs::acc));
}

TEST(FlushSynth, DecrementalFindsMinimalSet)
{
    const std::vector<std::string> candidates = ToyAccelRegs::all();
    const FlushSynthResult r = minimizeDecremental(
        duts::buildToyAccel, candidates, toyOptions(), toyEngine());
    EXPECT_TRUE(r.proved);
    EXPECT_EQ(r.fpvCalls, candidates.size() + 1);

    // Exactly the two observable leaks must remain; pipeline latches
    // and the write-only scratch register are dropped.
    EXPECT_TRUE(r.plan.contains(ToyAccelRegs::cfg));
    EXPECT_TRUE(r.plan.contains(ToyAccelRegs::acc));
    EXPECT_FALSE(r.plan.contains(ToyAccelRegs::scratch));
    EXPECT_FALSE(r.plan.contains(ToyAccelRegs::dataQ));
    EXPECT_FALSE(r.plan.contains(ToyAccelRegs::opQ));
    EXPECT_FALSE(r.plan.contains(ToyAccelRegs::pending));
}

TEST(FlushSynth, MinimalPlanIsSound)
{
    // Cross-check the minimized plan with a longer budget and the
    // strengthened k-induction proof path: no CEX, and an unbounded
    // proof backed by BMC to the full budget.
    const FlushSynthResult r = minimizeDecremental(
        duts::buildToyAccel, ToyAccelRegs::all(), toyOptions(), toyEngine());
    EngineOptions engine;
    engine.maxDepth = 16;
    engine.maxInductionK = 12;
    const RunResult check =
        proveAutocc(duts::buildToyAccel(r.plan), toyOptions(), engine);
    EXPECT_FALSE(check.foundCex());
    EXPECT_EQ(check.check.status, CheckStatus::Proved);
    EXPECT_GE(check.check.bound, 16u);
}

TEST(Analysis, RenderReportsAndWave)
{
    const RunResult r =
        runAutocc(duts::buildToyAccelShipped(), toyOptions(), toyEngine());
    ASSERT_TRUE(r.foundCex());
    const std::string report = r.cause.render();
    EXPECT_NE(report.find("spy mode starts at cycle"), std::string::npos);
    const std::string wave =
        renderCexWave(r.miter, *r.check.cex, {"cfg", "resp_data"});
    EXPECT_NE(wave.find("ua.cfg"), std::string::npos);
    EXPECT_NE(wave.find("spy_mode"), std::string::npos);
}

} // namespace autocc::core
