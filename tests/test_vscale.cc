/**
 * @file
 * Tests for the Vscale core model and the Table 2 refinement ladder:
 * ISA behaviour in simulation, blackboxing, the five CEX steps, and
 * the final proof under the trusted-OS assumption.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include <unistd.h>

#include "eval/vscale_eval.hh"
#include "sim/simulator.hh"

namespace autocc::eval
{

using duts::buildVscale;
using duts::VscaleConfig;
using duts::VscaleSignals;
using rtl::Netlist;

namespace
{

/** Encode an instruction: op[15:13] rd[12:11] rs1[10:9] imm[7:0]. */
uint64_t
encode(unsigned op, unsigned rd, unsigned rs1, unsigned imm)
{
    return (uint64_t{op} << 13) | (uint64_t{rd} << 11) |
           (uint64_t{rs1} << 9) | (imm & 0xff);
}

constexpr unsigned opNop = 0, opAddi = 1, opJalr = 2, opBeqz = 3,
                   opLw = 4, opSw = 5, opCsrrw = 6;

/** Drives the Vscale simulator like a little test harness. */
class VscaleSim
{
  public:
    VscaleSim() : netlist(buildVscale()), sim(netlist)
    {
        sim.poke("dmem_hready", 1);
        sim.poke("imem_rdata", 0);
        sim.poke("dmem_hrdata", 0);
        sim.poke("interrupt", 0);
    }

    void
    stepWith(uint64_t instr)
    {
        sim.poke("imem_rdata", instr);
        sim.step();
    }

    uint64_t
    reg(int i)
    {
        sim.eval();
        return sim.peek("pipeline.regfile.x" + std::to_string(i));
    }

    Netlist netlist;
    sim::Simulator sim;
};

} // namespace

// ----------------------------------------------------------------------
// Functional behaviour in simulation
// ----------------------------------------------------------------------

TEST(VscaleSim, AddiWritesRegfile)
{
    VscaleSim v;
    v.stepWith(encode(opAddi, 1, 0, 7)); // x1 = x0 + 7 (enters DX next)
    v.stepWith(encode(opNop, 0, 0, 0));  // ADDI in DX
    v.stepWith(encode(opNop, 0, 0, 0));  // ADDI in WB
    EXPECT_EQ(v.reg(1), 7u);
}

TEST(VscaleSim, AddiChains)
{
    VscaleSim v;
    v.stepWith(encode(opAddi, 1, 0, 5));
    v.stepWith(encode(opAddi, 2, 0, 3));
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    EXPECT_EQ(v.reg(1), 5u);
    EXPECT_EQ(v.reg(2), 3u);
}

TEST(VscaleSim, JalrRedirectsAndLinks)
{
    VscaleSim v;
    // Cycle 0 fetch JALR x1, x0, 0x20 -> executes in DX at cycle 1.
    v.stepWith(encode(opJalr, 1, 0, 0x20));
    v.sim.eval();
    const uint64_t pcBefore = v.sim.peek("imem_haddr");
    EXPECT_EQ(pcBefore, 1u);
    v.stepWith(encode(opNop, 0, 0, 0));
    v.sim.eval();
    EXPECT_EQ(v.sim.peek("imem_haddr"), 0x20u); // redirected
    v.stepWith(encode(opNop, 0, 0, 0));
    EXPECT_EQ(v.reg(1), 1u); // link = pc_DX + 1
}

TEST(VscaleSim, BeqzTakenOnlyWhenZero)
{
    VscaleSim v;
    // x1 = 9 first.
    v.stepWith(encode(opAddi, 1, 0, 9));
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    // BEQZ x1 (non-zero): no redirect.
    v.stepWith(encode(opBeqz, 0, 1, 0x30));
    v.sim.eval();
    const uint64_t pc = v.sim.peek("imem_haddr");
    v.stepWith(encode(opNop, 0, 0, 0));
    v.sim.eval();
    EXPECT_EQ(v.sim.peek("imem_haddr"), (pc + 1) & 0xff);
}

TEST(VscaleSim, StoreDrivesDmemInterface)
{
    VscaleSim v;
    v.stepWith(encode(opAddi, 2, 0, 0x44)); // x2 = 0x44
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opSw, 2, 0, 0x10)); // mem[x0 + 0x10] = x2
    v.sim.eval();
    v.sim.step(); // SW now in DX
    v.sim.poke("imem_rdata", encode(opNop, 0, 0, 0));
    v.sim.eval();
    EXPECT_EQ(v.sim.peek("dmem_req_valid"), 1u);
    EXPECT_EQ(v.sim.peek("dmem_hwrite"), 1u);
    EXPECT_EQ(v.sim.peek("dmem_haddr"), 0x10u);
    EXPECT_EQ(v.sim.peek("dmem_hwdata"), 0x44u);
}

TEST(VscaleSim, LoadUsesHrdata)
{
    VscaleSim v;
    v.stepWith(encode(opLw, 3, 0, 0x8)); // x3 = dmem[8]
    v.sim.poke("dmem_hrdata", 0x5a);
    v.stepWith(encode(opNop, 0, 0, 0)); // LW in DX, hready=1
    v.stepWith(encode(opNop, 0, 0, 0)); // WB
    EXPECT_EQ(v.reg(3), 0x5au);
}

TEST(VscaleSim, HreadyStallsPipeline)
{
    VscaleSim v;
    v.stepWith(encode(opLw, 3, 0, 0x8));
    v.sim.poke("dmem_hready", 0); // stall the LW in DX
    v.sim.poke("dmem_hrdata", 0x11);
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    EXPECT_EQ(v.reg(3), 0u); // still stalled, no WB
    v.sim.poke("dmem_hready", 1);
    v.sim.poke("dmem_hrdata", 0x22);
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    EXPECT_EQ(v.reg(3), 0x22u);
}

TEST(VscaleSim, CsrrwSwapsCsr)
{
    VscaleSim v;
    v.stepWith(encode(opAddi, 1, 0, 0x7e)); // x1 = 0x7e
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opCsrrw, 2, 1, 0)); // x2 = csr0; csr0 = x1
    v.stepWith(encode(opNop, 0, 0, 0));
    v.stepWith(encode(opNop, 0, 0, 0));
    EXPECT_EQ(v.reg(2), 0u); // csr0 was reset
    v.sim.eval();
    EXPECT_EQ(v.sim.peek("pipeline.csr.csr0"), 0x7eu);
}

TEST(VscaleSim, InterruptStallsFetchOnce)
{
    VscaleSim v;
    v.sim.poke("interrupt", 1);
    v.stepWith(encode(opAddi, 1, 0, 1)); // something that will retire
    v.sim.poke("interrupt", 0);
    // When the ADDI reaches WB, irq_pending stalls fetch for a cycle.
    uint64_t lastPc = 0;
    bool stalled = false;
    for (int i = 0; i < 6; ++i) {
        v.sim.eval();
        const uint64_t pc = v.sim.peek("imem_haddr");
        if (i > 0 && pc == lastPc)
            stalled = true;
        lastPc = pc;
        v.stepWith(encode(opNop, 0, 0, 0));
    }
    EXPECT_TRUE(stalled);
}

TEST(VscaleModel, BlackboxCsrChangesInterface)
{
    const Netlist plain = buildVscale();
    VscaleConfig config;
    config.blackboxCsr = true;
    const Netlist boxed = buildVscale(config);

    EXPECT_EQ(plain.findPort("pipeline.csr_rdata"), nullptr);
    ASSERT_NE(boxed.findPort("pipeline.csr_rdata"), nullptr);
    ASSERT_NE(boxed.findPort("pipeline.csr_wen"), nullptr);
    // Two fewer registers when the CSR module is gone.
    EXPECT_EQ(plain.regs().size(), boxed.regs().size() + 2);
}

// ----------------------------------------------------------------------
// Table 2: the five-step refinement
// ----------------------------------------------------------------------

class VscaleRefinement : public ::testing::Test
{
  protected:
    static const std::vector<VscaleStep> &
    steps()
    {
        static const std::vector<VscaleStep> result = [] {
            VscaleEvalOptions options;
            options.obs.stats = &registry;
            return runVscaleRefinement(options);
        }();
        return result;
    }

    /** Stats of the ladder's checks, filled by the first steps(). */
    static inline obs::Registry registry;
};

TEST_F(VscaleRefinement, TerminatesWithProof)
{
    ASSERT_GE(steps().size(), 3u);
    ASSERT_LE(steps().size(), 10u);
    const VscaleStep &last = steps().back();
    EXPECT_EQ(last.id, "proof");
    EXPECT_FALSE(last.foundCex);
    EXPECT_NE(last.refinement.find("bounded proof"), std::string::npos);
    EXPECT_GE(last.depth, 14u);
}

TEST_F(VscaleRefinement, EveryRefinementStepFindsACex)
{
    for (size_t i = 0; i + 1 < steps().size(); ++i) {
        EXPECT_TRUE(steps()[i].foundCex)
            << steps()[i].id << " found no CEX";
        EXPECT_GT(steps()[i].depth, 0u);
    }
}

TEST_F(VscaleRefinement, BlamedStateDrivesEveryRefinement)
{
    // Each CEX must blame at least one microarchitectural state
    // element — that is what drives the next refinement.
    for (size_t i = 0; i + 1 < steps().size(); ++i) {
        EXPECT_FALSE(steps()[i].blamed.empty())
            << steps()[i].id << " blamed nothing";
        EXPECT_FALSE(steps()[i].refinement.empty());
    }
}

TEST_F(VscaleRefinement, FindsTheInterruptChannel)
{
    // The paper's V5 channel (interrupt pending in WB stalling the
    // spy's fetch) must be among the discovered CEXs.
    bool found = false;
    for (const auto &step : steps()) {
        for (const auto &name : step.blamed)
            found |= name == "pipeline.wb_irq_pending";
    }
    EXPECT_TRUE(found);
}

TEST_F(VscaleRefinement, FindsTheCsrChannelAndBlackboxesIt)
{
    // The paper's V2 channel (state read from the CSR module) must be
    // discovered, and the scripted response is to blackbox the module.
    bool blackboxed = false;
    for (const auto &step : steps())
        blackboxed |= step.refinement == "blackbox the CSR module";
    EXPECT_TRUE(blackboxed);
}

TEST_F(VscaleRefinement, StaticCandidatesCoverEveryBlame)
{
    // Golden cross-check for the static leak classifier: every state
    // element FindCause blames on a real CEX must already be in the
    // static candidate set (surviving ∪ contaminated).
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.staticMissed.empty())
            << step.id << " blamed state outside the static candidate "
            << "set: " << step.staticMissed.front();
    }
}

TEST_F(VscaleRefinement, TaintLabelsSoundOnEveryCex)
{
    // Tripwire golden: no reproduced CEX may violate an assertion the
    // information-flow engine offered for discharge.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.taintUnsound.empty())
            << step.id << " CEX violates discharged assertion "
            << step.taintUnsound.front();
    }
}

TEST_F(VscaleRefinement, AbsintReductionSoundOnEveryCex)
{
    // Tripwire golden: replaying each CEX on the unreduced miter may
    // not contradict any absint reduction claim.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.absintUnsound.empty())
            << step.id << " CEX replay contradicts absint claim "
            << step.absintUnsound.front();
    }
}

TEST_F(VscaleRefinement, DepthsAreMinimalTraces)
{
    // With THRESHOLD=2, no CEX can be shorter than the transfer
    // period plus one observation cycle.
    for (size_t i = 0; i + 1 < steps().size(); ++i)
        EXPECT_GE(steps()[i].depth, 4u) << steps()[i].id;
}

TEST_F(VscaleRefinement, EveryCheckIsAReportedStep)
{
    // runAutocc runs the taint pass once per check: a check whose
    // result the ladder dropped would be a run without a step.
    const std::size_t reported = steps().size();
    EXPECT_EQ(registry.counter("taint.runs"), reported);
}

// ----------------------------------------------------------------------
// Kill/resume differential (robust layer, DESIGN.md §10)
// ----------------------------------------------------------------------

TEST(VscaleRobust, KillResumeReachesTheBaselineVerdict)
{
    // A run interrupted mid-campaign and resumed from its checkpoint
    // journal must reach exactly the verdict of an uninterrupted run:
    // same status, same blamed assertion, same CEX depth.
    core::AutoccOptions opts;
    opts.threshold = 2;
    const Netlist miter = core::buildMiter(buildVscale(), opts).netlist;

    formal::EngineOptions engine;
    engine.maxDepth = 10;
    const formal::CheckResult baseline =
        formal::checkSafety(miter, engine);
    ASSERT_TRUE(baseline.foundCex());
    ASSERT_GT(baseline.cex->depth, 1u);

    const std::string journal = "/tmp/autocc_vscale_resume_" +
                                std::to_string(::getpid()) + ".json";
    std::remove(journal.c_str());

    // The "killed" run: journals its bounds, stops one frame short.
    engine.checkpointPath = journal;
    engine.maxDepth = baseline.cex->depth - 1;
    const formal::CheckResult partial =
        formal::checkSafety(miter, engine);
    EXPECT_FALSE(partial.foundCex());

    engine.maxDepth = 10;
    engine.resume = true;
    const formal::CheckResult resumed =
        formal::checkSafety(miter, engine);
    EXPECT_EQ(resumed.resumedBound, baseline.cex->depth - 1);
    ASSERT_TRUE(resumed.foundCex());
    EXPECT_EQ(resumed.cex->depth, baseline.cex->depth);
    EXPECT_EQ(resumed.cex->failedAssert, baseline.cex->failedAssert);
    std::remove(journal.c_str());
}

// ----------------------------------------------------------------------
// Incremental vs monolithic differential (DESIGN.md §11)
// ----------------------------------------------------------------------

TEST(VscaleIncremental, MatchesMonolithicVerdict)
{
    // The incremental hot path (persistent solver, appended frames,
    // retained learnts, inprocessing) and the --no-incremental
    // monolithic baseline must agree on everything a user can see:
    // status, blamed assertion and CEX depth.
    core::AutoccOptions opts;
    opts.threshold = 2;
    const Netlist miter = core::buildMiter(buildVscale(), opts).netlist;

    formal::EngineOptions engine;
    engine.maxDepth = 10;
    const formal::CheckResult incremental =
        formal::checkSafety(miter, engine);

    engine.incremental = false;
    const formal::CheckResult monolithic =
        formal::checkSafety(miter, engine);

    EXPECT_EQ(incremental.status, monolithic.status);
    ASSERT_TRUE(incremental.foundCex());
    ASSERT_TRUE(monolithic.foundCex());
    EXPECT_EQ(incremental.cex->depth, monolithic.cex->depth);
    EXPECT_EQ(incremental.cex->failedAssert, monolithic.cex->failedAssert);

    // The incremental run must actually have reused its solver, and
    // the monolithic run must have re-encoded every frame from cold.
    EXPECT_GT(incremental.stats.counter("sat.incremental.solver_reuses"),
              0u);
    EXPECT_LT(incremental.stats.counter("sat.incremental.frames_encoded"),
              incremental.stats.counter("sat.incremental.frames_total"));
    EXPECT_EQ(monolithic.stats.counter("sat.incremental.solver_reuses"),
              0u);
}

} // namespace autocc::eval
