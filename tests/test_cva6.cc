/**
 * @file
 * Tests for the CVA6 memory-subsystem model: cache/TLB/PTW behaviour
 * in simulation (buggy and fixed variants), the fence.t variants, and
 * the C1/C2/C3 discovery ladder with fix validation.
 */

#include <gtest/gtest.h>

#include "eval/cva6_eval.hh"
#include "sim/simulator.hh"

namespace autocc::eval
{

using duts::buildCva6;
using duts::Cva6Config;
using duts::cva6Fixed;
using duts::Cva6Flush;
using rtl::Netlist;

namespace
{

/** Simulator harness for the CVA6 model. */
class Cva6Sim
{
  public:
    explicit Cva6Sim(const Cva6Config &config = {})
        : netlist(buildCva6(config)), sim(netlist)
    {
        for (const char *in : {"fence_t", "fetch_en", "if_fault",
                               "i_r_valid", "lsu_req_valid", "lsu_write",
                               "d_r_valid"})
            sim.poke(in, 0);
        sim.poke("i_r_data", 0);
        sim.poke("lsu_addr", 0);
        sim.poke("lsu_wdata", 0);
        sim.poke("d_r_data", 0);
    }

    uint64_t
    peek(const std::string &name)
    {
        sim.eval();
        return sim.peek(name);
    }

    /** Issue one LSU read and step. */
    void
    lsuRead(uint64_t addr)
    {
        sim.poke("lsu_req_valid", 1);
        sim.poke("lsu_addr", addr);
        sim.poke("lsu_write", 0);
        sim.step();
        sim.poke("lsu_req_valid", 0);
    }

    /** Provide one D$ refill beat and step. */
    void
    dRefill(uint64_t data)
    {
        sim.poke("d_r_valid", 1);
        sim.poke("d_r_data", data);
        sim.step();
        sim.poke("d_r_valid", 0);
    }

    Netlist netlist;
    sim::Simulator sim;
};

} // namespace

// ----------------------------------------------------------------------
// Functional behaviour
// ----------------------------------------------------------------------

TEST(Cva6Sim, FetchMissIssuesAndRefills)
{
    Cva6Sim c;
    c.sim.poke("fetch_en", 1);
    c.sim.step(); // fetch at pc=0 misses (cache empty)
    EXPECT_EQ(c.peek("frontend.ic_state"), 1u); // MISS
    EXPECT_EQ(c.peek("i_ar_valid"), 1u);
    EXPECT_EQ(c.peek("i_ar_addr"), 0u);

    c.sim.poke("i_r_valid", 1);
    c.sim.poke("i_r_data", 0x0003); // bit0 set: compressed instr
    c.sim.step();
    c.sim.poke("i_r_valid", 0);
    EXPECT_EQ(c.peek("frontend.ic_state"), 0u); // IDLE again
    EXPECT_EQ(c.peek("frontend.ic_v0"), 1u);
    // Retry hits and emits; pc advances by 1 (compressed).
    EXPECT_EQ(c.peek("if_instr_valid"), 1u);
    c.sim.step();
    EXPECT_EQ(c.peek("i_ar_addr"), 1u);
}

TEST(Cva6Sim, TlbMissWalksViaDcache)
{
    Cva6Sim c;
    c.lsuRead(0x35); // vpn 3: TLB miss -> PTW starts
    EXPECT_EQ(c.peek("mmu.ptw_state"), 1u); // LOOKUP
    c.sim.step(); // PTE fetch issued to D$ (misses, empty cache)
    EXPECT_EQ(c.peek("mmu.ptw_state"), 2u); // WAIT
    EXPECT_EQ(c.peek("d_ar_valid"), 1u);
    EXPECT_EQ(c.peek("d_ar_addr"), 0xf3u); // page table at 0xF0 | vpn

    c.dRefill(0x07); // PTE: ppn = 7
    c.sim.step();    // staged response consumed by the PTW
    EXPECT_EQ(c.peek("mmu.ptw_state"), 0u);
    EXPECT_EQ(c.peek("mmu.tlb_v"), 1u);
    EXPECT_EQ(c.peek("mmu.tlb_ppn"), 7u);

    // Retry now hits the TLB and reads through the D$ (PTE line hit
    // is at a different index, so this is a fresh miss).
    c.lsuRead(0x35);
    EXPECT_EQ(c.peek("d_ar_valid"), 1u);
    EXPECT_EQ(c.peek("d_ar_addr"), 0x75u); // {ppn=7, offset=5}
}

TEST(Cva6Sim, WriteMissMarksLineDirtyAndFenceWritesBack)
{
    Cva6Sim c(cva6Fixed());
    // Identity-map vpn 0 first: walk for vpn 0.
    c.lsuRead(0x05);
    c.sim.step();
    c.dRefill(0x00); // ppn 0
    c.sim.step();

    // Write to paddr 0x05 -> miss -> refill -> dirty line.
    c.sim.poke("lsu_req_valid", 1);
    c.sim.poke("lsu_addr", 0x05);
    c.sim.poke("lsu_write", 1);
    c.sim.poke("lsu_wdata", 0x5a);
    c.sim.step();
    c.sim.poke("lsu_req_valid", 0);
    c.dRefill(0x00);
    EXPECT_EQ(c.peek("dcache.d1"), 1u); // addr 5: idx 1 dirty
    EXPECT_EQ(c.peek("dcache.data1"), 0x5au);

    // fence.t: the write-back phase must emit the dirty line.
    c.sim.poke("fence_t", 1);
    c.sim.step();
    c.sim.poke("fence_t", 0);
    bool sawWb = false;
    for (int i = 0; i < 10; ++i) {
        c.sim.eval();
        if (c.sim.peek("d_aw_valid") && c.sim.peek("d_w_data") == 0x5a)
            sawWb = true;
        c.sim.step();
    }
    EXPECT_TRUE(sawWb);
    EXPECT_EQ(c.peek("dcache.v1"), 0u); // invalidated
    EXPECT_EQ(c.peek("dcache.d1"), 0u);
}

TEST(Cva6Sim, MicroresetFlushDonePulsesAfterPad)
{
    Cva6Sim c(cva6Fixed());
    c.sim.poke("fence_t", 1);
    c.sim.step();
    c.sim.poke("fence_t", 0);
    int doneAt = -1;
    for (int i = 1; i <= 12; ++i) {
        c.sim.eval();
        if (c.sim.peek("fence.done")) {
            doneAt = i;
            break;
        }
        c.sim.step();
    }
    // Padded to the worst case: done only after the PAD counter.
    EXPECT_GE(doneAt, 6);
}

TEST(Cva6Sim, BuggyPtwAbandonsWalkOnFlush)
{
    Cva6Sim buggy; // microreset, no fixes
    buggy.lsuRead(0x15);
    buggy.sim.step(); // PTW in WAIT, PTE fetch pending
    EXPECT_EQ(buggy.peek("mmu.ptw_state"), 2u);
    buggy.sim.poke("fence_t", 1);
    buggy.sim.step();
    buggy.sim.poke("fence_t", 0);
    buggy.sim.run(2);
    // The buggy FSM dropped to IDLE with the request still orphaned.
    EXPECT_EQ(buggy.peek("mmu.ptw_state"), 0u);
    EXPECT_EQ(buggy.peek("mmu.ptw_outstanding"), 1u);
}

TEST(Cva6Sim, FixedPtwWaitsOutTheResponse)
{
    Cva6Sim fixed(cva6Fixed());
    fixed.lsuRead(0x15);
    fixed.sim.step();
    EXPECT_EQ(fixed.peek("mmu.ptw_state"), 2u);
    fixed.sim.poke("fence_t", 1);
    fixed.sim.step();
    fixed.sim.poke("fence_t", 0);
    fixed.sim.run(1);
    EXPECT_EQ(fixed.peek("mmu.ptw_state"), 2u); // still waiting
    fixed.dRefill(0x02);
    fixed.sim.run(2);
    EXPECT_EQ(fixed.peek("mmu.ptw_state"), 0u);
    EXPECT_EQ(fixed.peek("mmu.ptw_outstanding"), 0u);
    // And the flush completes.
    bool done = false;
    for (int i = 0; i < 10 && !done; ++i) {
        fixed.sim.eval();
        done = fixed.sim.peek("fence.done");
        fixed.sim.step();
    }
    EXPECT_TRUE(done);
}

TEST(Cva6Sim, C3RefillLandsAfterClearOnBuggyFlush)
{
    Cva6Sim buggy;
    // Fill the TLB (identity) then start a D$ miss.
    buggy.lsuRead(0x05);
    buggy.sim.step();
    buggy.dRefill(0x00);
    buggy.sim.step();
    buggy.lsuRead(0x05); // D$ miss for paddr 5, pending refill
    EXPECT_EQ(buggy.peek("dcache.pending"), 1u);

    buggy.sim.poke("fence_t", 1);
    buggy.sim.step();
    buggy.sim.poke("fence_t", 0);
    buggy.sim.run(4); // WB + drain + clear happen without the refill
    // Refill arrives late, after the invalidation: line becomes valid.
    buggy.dRefill(0x77);
    EXPECT_EQ(buggy.peek("dcache.v1"), 1u)
        << "C3: refill after clear must leave a valid line";
}

TEST(Cva6Sim, FixedFlushDrainsLateRefill)
{
    Cva6Sim fixed(cva6Fixed());
    fixed.lsuRead(0x05);
    fixed.sim.step();
    fixed.dRefill(0x00);
    fixed.sim.step();
    fixed.lsuRead(0x05);
    EXPECT_EQ(fixed.peek("dcache.pending"), 1u);

    fixed.sim.poke("fence_t", 1);
    fixed.sim.step();
    fixed.sim.poke("fence_t", 0);
    fixed.sim.run(3);
    fixed.dRefill(0x77); // drained, not filled
    fixed.sim.run(4);
    EXPECT_EQ(fixed.peek("dcache.v1"), 0u);
    EXPECT_EQ(fixed.peek("dcache.pending"), 0u);
}

// ----------------------------------------------------------------------
// The evaluation ladder (Table 1 rows C1-C3)
// ----------------------------------------------------------------------

class Cva6Evaluation : public ::testing::Test
{
  protected:
    static const std::vector<Cva6Step> &
    steps()
    {
        static const std::vector<Cva6Step> result = [] {
            Cva6EvalOptions options;
            options.obs.stats = &registry;
            return runCva6Evaluation(options);
        }();
        return result;
    }

    /** Stats of the ladder's checks, filled by the first steps(). */
    static inline obs::Registry registry;

    static const Cva6Step *
    find(const std::string &id)
    {
        for (const auto &step : steps()) {
            if (step.id == id)
                return &step;
        }
        return nullptr;
    }
};

TEST_F(Cva6Evaluation, FullFlushPhaseRefindsKnownChannel)
{
    const Cva6Step *cf = find("CF");
    ASSERT_NE(cf, nullptr);
    EXPECT_TRUE(cf->foundCex);
}

TEST_F(Cva6Evaluation, FindsC1C2C3InOrder)
{
    const Cva6Step *c1 = find("C1");
    const Cva6Step *c2 = find("C2");
    const Cva6Step *c3 = find("C3");
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    ASSERT_NE(c3, nullptr);
    // Table 1 shape: C1 is the shallowest/fastest, C2 and C3 deeper.
    EXPECT_LE(c1->depth, c2->depth);
    EXPECT_LE(c2->depth, c3->depth);
}

TEST_F(Cva6Evaluation, C1BlamesStaleIcacheData)
{
    const Cva6Step *c1 = find("C1");
    ASSERT_NE(c1, nullptr);
    bool found = false;
    for (const auto &name : c1->blamed)
        found |= name.find("ic_data") != std::string::npos;
    EXPECT_TRUE(found);
    EXPECT_EQ(c1->failedAssert, "as__if_instr_valid_eq");
}

TEST_F(Cva6Evaluation, C2BlamesPtwState)
{
    const Cva6Step *c2 = find("C2");
    ASSERT_NE(c2, nullptr);
    bool found = false;
    for (const auto &name : c2->blamed)
        found |= name.find("mmu.ptw") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(Cva6Evaluation, StaticCandidatesCoverEveryBlame)
{
    // Golden cross-check for the static leak classifier: every state
    // element blamed on C1/C2/C3 (and the full-flush CF step) must be
    // a static candidate.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.staticMissed.empty())
            << step.id << " blamed state outside the static candidate "
            << "set: " << step.staticMissed.front();
    }
}

TEST_F(Cva6Evaluation, TaintLabelsSoundOnEveryCex)
{
    // Tripwire golden: no reproduced CEX may violate an assertion the
    // information-flow engine offered for discharge.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.taintUnsound.empty())
            << step.id << " CEX violates discharged assertion "
            << step.taintUnsound.front();
    }
}

TEST_F(Cva6Evaluation, AbsintReductionSoundOnEveryCex)
{
    // Tripwire golden: replaying each CEX on the unreduced miter may
    // not contradict any absint reduction claim.
    for (const auto &step : steps()) {
        EXPECT_TRUE(step.absintUnsound.empty())
            << step.id << " CEX replay contradicts absint claim "
            << step.absintUnsound.front();
    }
}

TEST_F(Cva6Evaluation, FixesValidatedByProof)
{
    const Cva6Step &last = steps().back();
    EXPECT_EQ(last.id, "proof");
    EXPECT_FALSE(last.foundCex);
    EXPECT_GE(last.depth, 18u);
}

TEST_F(Cva6Evaluation, EveryCheckIsAReportedStep)
{
    // runAutocc runs the taint pass once per check: a check whose
    // result the ladder dropped would be a run without a step.
    const std::size_t reported = steps().size();
    EXPECT_EQ(registry.counter("taint.runs"), reported);
}

// ----------------------------------------------------------------------
// Incremental vs monolithic differential (DESIGN.md §11)
// ----------------------------------------------------------------------

namespace
{

/** Run one microreset check both ways and demand identical verdicts. */
void
differentialCheck(const Cva6Config &config, const char *label)
{
    core::AutoccOptions opts;
    opts.threshold = 2;
    for (const auto &name : duts::cva6ArchState())
        opts.archEq.insert(name);
    const Netlist miter = core::buildMiter(buildCva6(config), opts).netlist;

    formal::EngineOptions engine;
    engine.maxDepth = 18;
    const formal::CheckResult incremental =
        formal::checkSafety(miter, engine);

    engine.incremental = false;
    const formal::CheckResult monolithic =
        formal::checkSafety(miter, engine);

    EXPECT_EQ(incremental.status, monolithic.status) << label;
    ASSERT_TRUE(incremental.foundCex()) << label;
    ASSERT_TRUE(monolithic.foundCex()) << label;
    EXPECT_EQ(incremental.cex->depth, monolithic.cex->depth) << label;
    EXPECT_EQ(incremental.cex->failedAssert,
              monolithic.cex->failedAssert) << label;
    EXPECT_GT(incremental.stats.counter("sat.incremental.solver_reuses"),
              0u) << label;
    EXPECT_EQ(monolithic.stats.counter("sat.incremental.solver_reuses"),
              0u) << label;
}

} // namespace

TEST(Cva6Incremental, C2DifferentialMatchesMonolithic)
{
    // The C2 configuration (C1 fixed, PTW flush bug live) — one of the
    // two bench targets for the incremental speedup.
    Cva6Config config;
    config.fixC1 = true;
    differentialCheck(config, "C2");
}

TEST(Cva6Incremental, C3DifferentialMatchesMonolithic)
{
    // The C3 configuration (C1+C2 fixed, late D$ refill bug live).
    Cva6Config config;
    config.fixC1 = true;
    config.fixC2 = true;
    differentialCheck(config, "C3");
}

} // namespace autocc::eval
