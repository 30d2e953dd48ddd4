/**
 * @file
 * Tests for the MAPLE engine model: API behaviour in simulation
 * (loads, TLB, cleanup, queues), the M1/M2/M3 covert channels via
 * AutoCC, fix validation, and the evaluation ladder.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include <unistd.h>

#include "eval/maple_eval.hh"
#include "sim/simulator.hh"

namespace autocc::eval
{

using duts::buildMaple;
using duts::buildMapleFixed;
using duts::MapleConfig;
using duts::MapleOp;
using rtl::Netlist;

namespace
{

/** Simulator harness speaking the dec_* command protocol. */
class MapleSim
{
  public:
    explicit MapleSim(const MapleConfig &config = {})
        : netlist(buildMaple(config)), sim(netlist)
    {
        sim.poke("cmd_valid", 0);
        sim.poke("cmd_op", 0);
        sim.poke("cmd_data", 0);
        sim.poke("noc_req_ready", 1);
        sim.poke("noc_resp_valid", 0);
        sim.poke("noc_resp_data", 0);
    }

    void
    cmd(MapleOp op, uint64_t data = 0)
    {
        sim.poke("cmd_valid", 1);
        sim.poke("cmd_op", static_cast<uint64_t>(op));
        sim.poke("cmd_data", data);
        sim.step();
        sim.poke("cmd_valid", 0);
    }

    void idle(unsigned cycles = 1) { sim.run(cycles); }

    uint64_t
    peek(const std::string &name)
    {
        sim.eval();
        return sim.peek(name);
    }

    Netlist netlist;
    sim::Simulator sim;
};

} // namespace

// ----------------------------------------------------------------------
// Functional behaviour
// ----------------------------------------------------------------------

TEST(MapleSim, SetBaseThenPhysicalLoadRequests)
{
    MapleSim m;
    m.cmd(MapleOp::TlbOff);
    m.cmd(MapleOp::SetBase, 0x40);
    // Request appears combinationally once the load is accepted.
    m.sim.poke("cmd_valid", 1);
    m.sim.poke("cmd_op", static_cast<uint64_t>(MapleOp::LoadWord));
    m.sim.poke("cmd_data", 0x05);
    m.sim.step();
    m.sim.poke("cmd_valid", 0);
    EXPECT_EQ(m.peek("noc_req_valid"), 1u);
    EXPECT_EQ(m.peek("noc_req_addr"), 0x45u);
}

TEST(MapleSim, TlbMissFaults)
{
    MapleSim m;
    // TLB enabled by default, no entries -> fault.
    m.cmd(MapleOp::LoadWord, 0x05);
    EXPECT_EQ(m.peek("noc_req_valid"), 0u);
    m.cmd(MapleOp::Consume);
    // resp_valid/resp_fault are combinational during the consume cmd.
    m.sim.poke("cmd_valid", 1);
    m.sim.poke("cmd_op", static_cast<uint64_t>(MapleOp::Consume));
    EXPECT_EQ(m.peek("resp_valid"), 0u); // fault was cleared by consume
    m.sim.poke("cmd_valid", 0);
}

TEST(MapleSim, TlbFillTranslates)
{
    MapleSim m;
    m.cmd(MapleOp::SetBase, 0x20);
    m.cmd(MapleOp::TlbFill, 0x27); // vpn 2 -> ppn 7
    m.sim.poke("cmd_valid", 1);
    m.sim.poke("cmd_op", static_cast<uint64_t>(MapleOp::LoadWord));
    m.sim.poke("cmd_data", 0x03); // vaddr 0x23, vpn 2 -> paddr 0x73
    m.sim.step();
    m.sim.poke("cmd_valid", 0);
    EXPECT_EQ(m.peek("noc_req_valid"), 1u);
    EXPECT_EQ(m.peek("noc_req_addr"), 0x73u);
}

TEST(MapleSim, ResponseFlowsThroughQueueToConsume)
{
    MapleSim m;
    m.sim.poke("noc_resp_valid", 1);
    m.sim.poke("noc_resp_data", 0x99);
    m.sim.step();
    m.sim.poke("noc_resp_valid", 0);
    // Consume returns the queued word combinationally.
    m.sim.poke("cmd_valid", 1);
    m.sim.poke("cmd_op", static_cast<uint64_t>(MapleOp::Consume));
    EXPECT_EQ(m.peek("resp_valid"), 1u);
    EXPECT_EQ(m.peek("resp_data"), 0x99u);
    EXPECT_EQ(m.peek("resp_fault"), 0u);
}

TEST(MapleSim, CleanupClearsTlbAndQueueButNotConfig)
{
    MapleSim m;
    m.cmd(MapleOp::SetBase, 0x50);
    m.cmd(MapleOp::TlbOff);
    m.cmd(MapleOp::TlbFill, 0x15);
    m.sim.poke("noc_resp_valid", 1);
    m.sim.poke("noc_resp_data", 0x42);
    m.sim.step();
    m.sim.poke("noc_resp_valid", 0);

    m.cmd(MapleOp::Cleanup);
    m.idle(2); // RUN + done

    EXPECT_EQ(m.peek("tlb.e0_valid"), 0u);
    EXPECT_EQ(m.peek("queue.count"), 0u);
    // The buggy model leaks config across cleanup (M2 + M3).
    EXPECT_EQ(m.peek("cfg.array_base"), 0x50u);
    EXPECT_EQ(m.peek("cfg.tlb_en"), 0u);
}

TEST(MapleSim, FixedModelResetsConfigOnCleanup)
{
    MapleSim m(MapleConfig{.fixTlbEnable = true, .fixArrayBase = true});
    m.cmd(MapleOp::SetBase, 0x50);
    m.cmd(MapleOp::TlbOff);
    m.cmd(MapleOp::Cleanup);
    m.idle(2);
    EXPECT_EQ(m.peek("cfg.array_base"), 0u);
    EXPECT_EQ(m.peek("cfg.tlb_en"), 1u);
}

TEST(MapleSim, FlushDonePulsesAfterCleanup)
{
    MapleSim m;
    m.cmd(MapleOp::Cleanup);
    EXPECT_EQ(m.peek("inv.state"), 1u); // RUN
    m.idle(1);
    EXPECT_EQ(m.peek("inv.done"), 1u);
    m.idle(1);
    EXPECT_EQ(m.peek("inv.done"), 0u);
}

TEST(MapleSim, OutputBufferBackpressure)
{
    MapleSim m;
    m.cmd(MapleOp::TlbOff);
    m.sim.poke("noc_req_ready", 0);
    m.cmd(MapleOp::LoadWord, 1);
    m.cmd(MapleOp::LoadWord, 2);
    EXPECT_EQ(m.peek("noc.outbuf.count"), 2u);
    // Cleanup does NOT drain the buffer (M1).
    m.cmd(MapleOp::Cleanup);
    m.idle(2);
    EXPECT_EQ(m.peek("noc.outbuf.count"), 2u);
    // Release the back-pressure: both drain in order.
    m.sim.poke("noc_req_ready", 1);
    EXPECT_EQ(m.peek("noc_req_addr"), 1u);
    m.idle(1);
    EXPECT_EQ(m.peek("noc_req_addr"), 2u);
}

// ----------------------------------------------------------------------
// Covert channels via AutoCC
// ----------------------------------------------------------------------

class MapleEvaluation : public ::testing::Test
{
  protected:
    static const std::vector<MapleStep> &
    steps()
    {
        static const std::vector<MapleStep> result = [] {
            MapleEvalOptions options;
            options.obs.stats = &registry;
            return runMapleEvaluation(options);
        }();
        return result;
    }

    /** Stats of the ladder's checks, filled by the first steps(). */
    static inline obs::Registry registry;

    static const MapleStep *
    find(const std::string &id)
    {
        for (const auto &step : steps()) {
            if (step.id == id)
                return &step;
        }
        return nullptr;
    }
};

TEST_F(MapleEvaluation, FindsAllThreeChannels)
{
    EXPECT_NE(find("M1"), nullptr);
    EXPECT_NE(find("M2"), nullptr);
    EXPECT_NE(find("M3"), nullptr);
}

TEST_F(MapleEvaluation, M2BlamesTlbEnable)
{
    const MapleStep *m2 = find("M2");
    ASSERT_NE(m2, nullptr);
    bool found = false;
    for (const auto &name : m2->blamed)
        found |= name == "cfg.tlb_en";
    EXPECT_TRUE(found);
}

TEST_F(MapleEvaluation, M3BlamesArrayBase)
{
    const MapleStep *m3 = find("M3");
    ASSERT_NE(m3, nullptr);
    bool found = false;
    for (const auto &name : m3->blamed)
        found |= name == "cfg.array_base";
    EXPECT_TRUE(found);
}

TEST_F(MapleEvaluation, FixesEliminateAllCexs)
{
    const MapleStep &last = steps().back();
    EXPECT_EQ(last.id, "proof");
    EXPECT_FALSE(last.foundCex);
    EXPECT_GE(last.depth, 14u);
}

TEST_F(MapleEvaluation, StaticCandidatesCoverEveryBlame)
{
    // Golden cross-check for the static leak classifier: every state
    // element blamed on M1/M2/M3 must be a static candidate.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.staticMissed.empty())
            << step.id << " blamed state outside the static candidate "
            << "set: " << step.staticMissed.front();
    }
}

TEST_F(MapleEvaluation, TaintLabelsSoundOnEveryCex)
{
    // Tripwire golden: no reproduced CEX may violate an assertion the
    // information-flow engine offered for discharge.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.taintUnsound.empty())
            << step.id << " CEX violates discharged assertion "
            << step.taintUnsound.front();
    }
}

TEST_F(MapleEvaluation, AbsintReductionSoundOnEveryCex)
{
    // Tripwire golden: replaying each CEX on the unreduced miter may
    // not contradict any absint reduction claim.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.absintUnsound.empty())
            << step.id << " CEX replay contradicts absint claim "
            << step.absintUnsound.front();
    }
}

TEST_F(MapleEvaluation, EveryStepHasTiming)
{
    for (const auto &step : steps())
        EXPECT_GE(step.seconds, 0.0);
}

TEST_F(MapleEvaluation, EveryCheckIsAReportedStep)
{
    // MAPLE's checks call formal::check on a miter carrying the M1
    // assumption, not runAutocc, so they skip the taint pass; the COI
    // pass runs once in every formal::check.  A check whose result the
    // ladder dropped would be a COI pass without a step.
    const std::size_t reported = steps().size();
    EXPECT_EQ(registry.counter("coi.runs"), reported);
}

TEST(MapleAutocc, FixedWithoutBufferAssumptionStillShowsM1)
{
    // The RTL fixes close M2/M3 but the buffer channel (M1) is real
    // hardware behaviour the paper handled by assumption: without the
    // assumption the CEX must still be found.
    core::AutoccOptions opts;
    opts.threshold = 2;
    formal::EngineOptions engine;
    engine.maxDepth = 12;
    const core::RunResult run =
        core::runAutocc(buildMapleFixed(), opts, engine);
    ASSERT_TRUE(run.foundCex());
    bool blamesBuffer = false;
    for (const auto &name : run.cause.uarchNames())
        blamesBuffer |= name.find("noc.outbuf") != std::string::npos;
    EXPECT_TRUE(blamesBuffer) << run.cause.render();
}

TEST(MapleRobust, KillResumeReachesTheBaselineVerdict)
{
    // Kill/resume differential (robust layer, DESIGN.md §10): a run
    // restarted from its checkpoint journal must agree with an
    // uninterrupted run on status, blamed assertion and CEX depth.
    core::AutoccOptions opts;
    opts.threshold = 2;
    const Netlist miter = core::buildMiter(buildMaple(), opts).netlist;

    formal::EngineOptions engine;
    engine.maxDepth = 10;
    const formal::CheckResult baseline =
        formal::checkSafety(miter, engine);
    ASSERT_TRUE(baseline.foundCex());
    ASSERT_GT(baseline.cex->depth, 1u);

    const std::string journal = "/tmp/autocc_maple_resume_" +
                                std::to_string(::getpid()) + ".json";
    std::remove(journal.c_str());

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

TEST(MapleIncremental, MatchesMonolithicVerdict)
{
    // Incremental vs --no-incremental differential (DESIGN.md §11):
    // identical status, blamed assertion and CEX depth, with the
    // incremental side demonstrably reusing its solver.
    core::AutoccOptions opts;
    opts.threshold = 2;
    const Netlist miter = core::buildMiter(buildMaple(), opts).netlist;

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
    EXPECT_GT(incremental.stats.counter("sat.incremental.solver_reuses"),
              0u);
    EXPECT_EQ(monolithic.stats.counter("sat.incremental.solver_reuses"),
              0u);
}

} // namespace autocc::eval
