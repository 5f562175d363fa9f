/**
 * @file
 * Tests for the FlashMem core: weight slicing, overlap-plan invariants
 * and serialization, LC-OPG planning (C0-C4), adaptive fusion, kernel
 * rewriting, the streaming runtime, and the facade's ablation behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/flashmem.hh"
#include "core/fusion.hh"
#include "core/kernel_rewriter.hh"
#include "core/lc_opg.hh"
#include "core/overlap_plan.hh"
#include "core/runtime.hh"
#include "core/weight_slicer.hh"
#include "graph/builder.hh"
#include "models/model_zoo.hh"

namespace flashmem::core {
namespace {

using graph::GraphBuilder;
using graph::OpKind;
using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using gpusim::KernelModel;

/** Small transformer-ish graph for focused tests. */
graph::Graph
toyGraph(int blocks = 3, std::int64_t d = 256, std::int64_t tokens = 64)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({tokens, d});
    for (int i = 0; i < blocks; ++i) {
        std::string p = "blk" + std::to_string(i);
        auto n = b.layerNorm(x, p + ".ln");
        auto h = b.matmul(n, 4 * d, p + ".fc1");
        h = b.activation(h, OpKind::GeLU, p + ".act");
        h = b.matmul(h, d, p + ".fc2");
        x = b.add(x, h, p + ".res");
    }
    return b.build();
}

// ----------------------------------------------------------- WeightSlicer

TEST(WeightSlicer, ChunkCounts)
{
    WeightSlicer s(mib(1));
    EXPECT_EQ(s.chunkCount(Bytes{0}), 0);
    EXPECT_EQ(s.chunkCount(mib(1)), 1);
    EXPECT_EQ(s.chunkCount(mib(1) + 1), 2);
    EXPECT_EQ(s.chunkCount(mib(16)), 16);
}

TEST(WeightSlicer, BytesForChunksHandlesShortTail)
{
    graph::Graph g("t", Precision::FP16);
    graph::Node n;
    n.name = "n";
    n.kind = OpKind::MatMul;
    n.output = graph::TensorDesc{{1}, Precision::FP16};
    g.addNode(n);
    // 2.5 MiB weight -> 3 chunks of 1 MiB.
    g.attachWeight(0, {{1310720, 1}, Precision::FP16}, "w");

    WeightSlicer s(mib(1));
    const auto &w = g.weight(0);
    EXPECT_EQ(s.chunkCount(w), 3);
    EXPECT_EQ(s.bytesForChunks(w, 0), 0u);
    EXPECT_EQ(s.bytesForChunks(w, 2), mib(2));
    EXPECT_EQ(s.bytesForChunks(w, 3), w.bytes()); // exact tail
}

TEST(WeightSlicer, TotalChunksSumsGraph)
{
    auto g = toyGraph(2);
    WeightSlicer s(kib(64));
    std::int64_t manual = 0;
    for (const auto &w : g.weights())
        manual += s.chunkCount(w);
    EXPECT_EQ(s.totalChunks(g), manual);
}

// ------------------------------------------------------------ OverlapPlan

TEST(OverlapPlan, ValidatesCompleteCoverage)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    // Preload everything: trivially valid.
    for (const auto &w : g.weights())
        plan.setPreloadChunks(w.id, s.chunkCount(w));
    EXPECT_TRUE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsMissingChunks)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    // Leave every weight unassigned: C0 violated.
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsTransformAtConsumer)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    const auto &w0 = g.weights().front();
    for (const auto &w : g.weights())
        plan.setPreloadChunks(w.id, s.chunkCount(w));
    // Shift one chunk onto the consumer itself: invalid.
    plan.setPreloadChunks(w0.id, s.chunkCount(w0) - 1);
    plan.addAssignment(w0.id, w0.consumer, 1);
    plan.setEarliestLoad(w0.id, w0.consumer);
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsC1Violation)
{
    auto g = toyGraph(2);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    // Find a weight consumed late enough to have room.
    const graph::Weight *w = nullptr;
    for (const auto &cand : g.weights()) {
        if (cand.consumer >= 4)
            w = &cand;
    }
    ASSERT_NE(w, nullptr);
    for (const auto &other : g.weights())
        plan.setPreloadChunks(other.id, s.chunkCount(other));
    plan.setPreloadChunks(w->id, s.chunkCount(*w) - 1);
    plan.addAssignment(w->id, w->consumer - 2, 1);
    // z_w after the first transforming layer: C1 violated.
    plan.setEarliestLoad(w->id, w->consumer - 1);
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, SerializationRoundTrip)
{
    auto g = toyGraph(2);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(256);
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();

    auto restored = OverlapPlan::deserialize(plan.serialize());
    EXPECT_TRUE(restored.validate(g, false));
    EXPECT_EQ(restored.chunkBytes(), plan.chunkBytes());
    EXPECT_EQ(restored.preloadBytes(g), plan.preloadBytes(g));
    EXPECT_DOUBLE_EQ(restored.overlapFraction(g),
                     plan.overlapFraction(g));
}

TEST(OverlapPlan, DeserializeRejectsAssignmentLayerOutOfRange)
{
    const std::string head = "chunk 1048576\nlayers 2\nw 0 0 -1\n";
    EXPECT_DEATH(OverlapPlan::deserialize(head + "x 0 -3 1\n"),
                 "outside \\[0, 2\\)");
    EXPECT_DEATH(OverlapPlan::deserialize(head + "x 0 2 1\n"),
                 "outside \\[0, 2\\)");
}

TEST(OverlapPlan, DeserializeRejectsNonPositiveAssignment)
{
    const std::string head = "chunk 1048576\nlayers 2\nw 0 0 -1\n";
    EXPECT_DEATH(OverlapPlan::deserialize(head + "x 0 1 0\n"),
                 "assignment of 0 chunks");
    EXPECT_DEATH(OverlapPlan::deserialize(head + "x 0 1 -4\n"),
                 "assignment of -4 chunks");
}

TEST(OverlapPlan, DeserializeRejectsNegativePreload)
{
    EXPECT_DEATH(OverlapPlan::deserialize(
                     "chunk 1048576\nlayers 2\nw 0 -1 -1\n"),
                 "preloads -1 chunks");
}

// --------------------------------------------------------------- LC-OPG

class LcOpgOnModels
    : public ::testing::TestWithParam<models::ModelId>
{
};

TEST_P(LcOpgOnModels, ProducesValidPlan)
{
    auto g = models::buildModel(GetParam());
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    PlanStats stats;
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan(&stats);

    EXPECT_TRUE(plan.validate(g, false));
    EXPECT_GT(stats.windows, 0);
    // Some weights must stream (the whole point of FlashMem).
    EXPECT_GT(plan.overlapFraction(g), 0.2);
}

INSTANTIATE_TEST_SUITE_P(Zoo, LcOpgOnModels,
                         ::testing::Values(models::ModelId::GPTNeoS,
                                           models::ModelId::ViT,
                                           models::ModelId::ResNet50,
                                           models::ModelId::
                                               WhisperMedium));

TEST(LcOpg, RespectsLayerCapacities)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(128);
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();

    WeightSlicer slicer(params.chunkBytes);
    for (graph::NodeId l = 0;
         l < static_cast<graph::NodeId>(g.layerCount()); ++l) {
        std::int64_t assigned = 0;
        for (const auto &a : plan.assignmentsAt(l))
            assigned += a.chunks;
        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = true;
        EXPECT_LE(assigned,
                  cap.capacityChunks(spec, params.chunkBytes))
            << "layer " << l;
    }
}

TEST(LcOpg, RespectsMPeakInFlightBound)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(128);
    params.mPeak = kib(512); // 4 chunks of headroom only
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();
    EXPECT_TRUE(plan.validate(g, false));

    // Reconstruct in-flight occupancy: chunks transformed at <= p for
    // weights consumed after p.
    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    for (graph::NodeId p = 0; p < layers; ++p) {
        std::int64_t inflight = 0;
        for (graph::NodeId l = 0; l <= p; ++l) {
            for (const auto &a : plan.assignmentsAt(l)) {
                if (g.weight(a.weight).consumer > p)
                    inflight += a.chunks;
            }
        }
        EXPECT_LE(inflight, 4) << "layer " << p;
    }
}

TEST(LcOpg, TinyMPeakForcesPreload)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams strict;
    strict.mPeak = 0; // no streaming headroom at all
    LcOpgPlanner planner(g, cap, km, strict);
    auto plan = planner.plan();
    EXPECT_TRUE(plan.validate(g, false));
    EXPECT_DOUBLE_EQ(plan.overlapFraction(g), 0.0);
}

TEST(LcOpg, LargerMPeakNeverReducesOverlap)
{
    auto g = toyGraph(5);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    double prev = -1.0;
    for (Bytes mpeak : {mib(2), mib(16), mib(128), mib(512)}) {
        OpgParams params;
        params.mPeak = mpeak;
        LcOpgPlanner planner(g, cap, km, params);
        auto plan = planner.plan();
        double frac = plan.overlapFraction(g);
        EXPECT_GE(frac + 1e-9, prev) << "mPeak " << mpeak;
        prev = frac;
    }
}

TEST(LcOpg, FirstLayerWeightsArePreloaded)
{
    // Weights consumed by the very first weighted layer have no earlier
    // layers to transform them: they must join W (paper Section 3.1.1).
    GraphBuilder b("front", Precision::FP16);
    auto x = b.input({64, 256});
    b.matmul(x, 256, "first_fc");
    auto g = b.build();

    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();
    WeightSlicer slicer(plan.chunkBytes());
    for (const auto &w : g.weights()) {
        if (w.consumer <= 1) {
            EXPECT_EQ(plan.schedule(w.id).preloadChunks,
                      slicer.chunkCount(w));
        }
    }
}

TEST(LcOpg, StatsAccountAllWindows)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    PlanStats stats;
    LcOpgPlanner planner(g, cap, km);
    planner.plan(&stats);
    EXPECT_EQ(stats.windows,
              stats.optimalWindows + stats.feasibleWindows +
                  stats.greedyWindows);
    EXPECT_GT(stats.solveSeconds, 0.0);
    EXPECT_GT(stats.processNodesSeconds, 0.0);
}

// --------------------------------------------------------------- PlanMemo

solver::SolveResult
feasibleResult(std::int64_t value)
{
    solver::SolveResult r;
    r.status = solver::SolveStatus::Feasible;
    r.values = {value};
    r.objective = value;
    r.decisions = static_cast<std::uint64_t>(value);
    return r;
}

TEST(PlanMemo, SolveStoreIsExactAndBoundedLru)
{
    PlanMemo memo(2);
    auto key = [](std::uint64_t fp) { return SolveKey{fp, {4, 5}, 100, 0}; };
    memo.storeSolve(key(1), feasibleResult(10));
    memo.storeSolve(key(2), feasibleResult(20));
    // Every key component takes part: no near miss is a hit.
    auto other_hint = key(1);
    other_hint.hint.back() = 6;
    auto other_budget = key(1);
    other_budget.maxDecisions = 101;
    auto other_restarts = key(1);
    other_restarts.restartConflictBase = 1024;
    for (const auto &k : {other_hint, other_budget, other_restarts})
        EXPECT_FALSE(memo.lookupSolve(k).has_value());

    auto hit = memo.lookupSolve(key(1)); // 1 is now most recent
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->values, (std::vector<std::int64_t>{10}));
    EXPECT_EQ(hit->decisions, 10u);
    memo.storeSolve(key(3), feasibleResult(30)); // evicts 2
    EXPECT_EQ(memo.solveCount(), 2u);
    EXPECT_TRUE(memo.lookupSolve(key(1)).has_value());
    EXPECT_FALSE(memo.lookupSolve(key(2)).has_value());
    // Storing under a present key replaces it without evicting.
    memo.storeSolve(key(3), feasibleResult(31));
    EXPECT_EQ(memo.solveCount(), 2u);
    EXPECT_EQ(memo.lookupSolve(key(3))->values,
              (std::vector<std::int64_t>{31}));
}

TEST(LcOpg, PlanMemoDisabledStillMatches)
{
    // A plan completed from the memo equals one planned with no memo
    // (a null OpgParams::memo) at all.
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    PlanMemo memo;
    OpgParams with_memo;
    with_memo.memo = &memo;
    LcOpgPlanner(g, cap, km, with_memo).plan();
    PlanStats reused, no_memo;
    auto plan1 = LcOpgPlanner(g, cap, km, with_memo).plan(&reused);
    auto plan2 = LcOpgPlanner(g, cap, km, OpgParams{}).plan(&no_memo);
    EXPECT_GT(reused.memoHits, 0u);
    EXPECT_EQ(no_memo.memoHits, 0u);
    EXPECT_EQ(plan1.serialize(), plan2.serialize());
}

// ----------------------------------------- Parallel window planning

TEST(LcOpg, ParallelPlansAreByteIdentical)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    const int hw = ThreadPool::defaultThreadCount();
    std::vector<int> arms = {1, 4};
    if (hw != 1 && hw != 4)
        arms.push_back(hw);

    std::string ref;
    std::uint64_t ref_decisions = 0;
    for (int threads : arms) {
        OpgParams params;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats stats;
        auto s = planner.plan(&stats).serialize();
        EXPECT_EQ(stats.threads, threads);
        if (ref.empty()) {
            ref = s;
            ref_decisions = stats.solverDecisions;
        }
        EXPECT_EQ(s, ref) << "threads=" << threads;
        EXPECT_EQ(stats.solverDecisions, ref_decisions)
            << "threads=" << threads;
    }
}

TEST(LcOpg, ParallelPlansWithRestartsAreByteIdentical)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    std::string ref;
    solver::SolveStatus ref_status = solver::SolveStatus::Unknown;
    for (int threads : {1, 4}) {
        OpgParams params;
        params.chunkBytes = kib(256);
        params.restartConflictBase = 256;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats stats;
        auto s = planner.plan(&stats).serialize();
        if (ref.empty()) {
            ref = s;
            ref_status = stats.overallStatus;
        }
        EXPECT_EQ(s, ref) << "threads=" << threads;
        EXPECT_EQ(stats.overallStatus, ref_status);
    }
}

// ------------------------------------- Merge re-balancing + re-planning

TEST(LcOpg, MergeRebalanceTopsUpTruncatedWindows)
{
    // Under the latency-priority configuration some windows preload
    // chunks even though earlier windows reserved capacity greedily
    // and did not use it; the second merge pass moves those chunks
    // back into the stream.
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    OpgParams params;
    params.mPeak = mib(1024);
    params.lambda = 0.5;
    params.restartConflictBase = 1024;

    params.mergeRebalance = false;
    PlanStats off_stats;
    LcOpgPlanner off(g, cap, km, params);
    auto plan_off = off.plan(&off_stats);

    params.mergeRebalance = true;
    PlanStats on_stats;
    LcOpgPlanner on(g, cap, km, params);
    auto plan_on = on.plan(&on_stats);

    EXPECT_EQ(off_stats.rebalancedChunks, 0);
    EXPECT_GT(on_stats.rebalancedChunks, 0);
    EXPECT_GT(on_stats.rebalancedWeights, 0);
    // Top-ups only ever shrink the preload set, and the plan stays
    // valid against C0/C1 (validate) and C2/C3 (the ledgers).
    EXPECT_TRUE(plan_on.validate(g, false));
    EXPECT_LT(plan_on.preloadBytes(g), plan_off.preloadBytes(g));
    EXPECT_GT(plan_on.overlapFraction(g), plan_off.overlapFraction(g));
}

TEST(LcOpg, RebalancedPlanRespectsCapacitiesAndInflight)
{
    // The topped-up plan must still satisfy per-layer load capacities
    // (C3) and the in-flight bound (C2), reconstructed independently.
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.mPeak = mib(1024);
    params.lambda = 0.5;
    params.restartConflictBase = 1024;
    PlanStats stats;
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan(&stats);
    ASSERT_GT(stats.rebalancedChunks, 0);

    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params.mPeak / params.chunkBytes);
    std::vector<std::int64_t> per_layer(layers, 0);
    for (graph::NodeId l = 0; l < layers; ++l) {
        for (const auto &a : plan.assignmentsAt(l))
            per_layer[l] += a.chunks;
        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = true;
        EXPECT_LE(per_layer[l],
                  cap.capacityChunks(spec, params.chunkBytes))
            << "layer " << l;
    }
    std::int64_t worst_inflight = 0;
    for (graph::NodeId p = 0; p < layers; ++p) {
        std::int64_t inflight = 0;
        for (graph::NodeId l = 0; l <= p; ++l) {
            for (const auto &a : plan.assignmentsAt(l)) {
                if (g.weight(a.weight).consumer > p)
                    inflight += a.chunks;
            }
        }
        worst_inflight = std::max(worst_inflight, inflight);
    }
    EXPECT_LE(worst_inflight, mpeak_chunks);
}

TEST(LcOpg, ReplanMatchesFreshPlannerAtThatBudget)
{
    // replan() reuses the first plan()'s graph analysis but must reset
    // the capacity/in-flight ledgers: the result has to be
    // byte-identical to a fresh planner constructed at the new budget.
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(256);
    params.solverDecisionsPerWindow = 2000000;
    params.solverTimePerWindow = 10.0;

    PlanMemo memo_a(1024), memo_b(1024);
    params.memo = &memo_a;
    LcOpgPlanner planner(g, cap, km, params);
    PlanStats first_stats;
    auto first = planner.plan(&first_stats);
    ASSERT_EQ(first_stats.overallStatus, solver::SolveStatus::Optimal);
    PlanStats replan_stats;
    auto replanned = planner.replan(mib(1), &replan_stats);
    EXPECT_TRUE(replanned.validate(g, false));

    params.memo = &memo_b;
    params.mPeak = mib(1);
    LcOpgPlanner fresh(g, cap, km, params);
    auto expected = fresh.plan();
    EXPECT_EQ(replanned.serialize(), expected.serialize());
    // And re-planning back to the original budget restores the
    // original plan bit for bit.
    auto restored = planner.replan(OpgParams{}.mPeak);
    EXPECT_EQ(restored.serialize(), first.serialize());
}

/** Every PlanStats field a memo hit must leave unchanged: all but
 * host times and memoHits itself. */
std::string
reuseInvariantStats(const PlanStats &s)
{
    std::ostringstream os;
    os << static_cast<int>(s.overallStatus) << ' ' << s.windows << ' '
       << s.optimalWindows << ' ' << s.feasibleWindows << ' '
       << s.softRelaxations << ' ' << s.forcedPreloads << ' '
       << s.greedyWindows << ' ' << s.threads << ' '
       << s.rebalancedChunks << ' ' << s.rebalancedWeights << ' '
       << s.solverDecisions << ' ' << s.solverRestarts << ' '
       << s.solverPropagations << ' ' << s.solverConflicts << ' '
       << s.timeLimitedWindows << '\n';
    for (const auto &w : s.windowSummaries) {
        os << w.window << ' ' << static_cast<int>(w.status) << ' '
           << w.usedGreedy << ' ' << w.decisions << ' '
           << w.propagations << ' ' << w.conflicts << ' ' << w.restarts
           << '\n';
    }
    return os.str();
}

TEST(LcOpg, ReplanReusesTruncatedWindowSolvesExactly)
{
    // Budget-truncated windows at the default decision budget: a
    // re-plan reuses the finished solve of every window its budget
    // cannot bind, and must still equal a fresh planner without a memo
    // at the new budget in plan, counters and summaries. 250 MiB
    // binds no window; 3 MiB binds in-flight rows that leave the
    // greedy hint unchanged, so only the entailment test keeps those
    // windows from reusing a 500 MiB solve.
    auto g = models::buildModel(models::ModelId::DepthAnythingS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        OpgParams params;
        params.parallel.threads = threads;
        // Only the decision budget may end a search: a sanitizer build
        // can take longer than the default backstop on one window.
        params.solverTimePerWindow = 60.0;
        ASSERT_EQ(params.mPeak, mib(500));
        PlanMemo memo;
        params.memo = &memo;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats first_stats;
        const auto first = planner.plan(&first_stats).serialize();
        ASSERT_GT(first_stats.feasibleWindows, 0);
        EXPECT_EQ(first_stats.timeLimitedWindows, 0);
        EXPECT_EQ(first_stats.memoHits, 0u);
        for (Bytes budget : {mib(250), mib(3)}) {
            SCOPED_TRACE(budget);
            PlanStats replan_stats, fresh_stats;
            const auto replanned =
                planner.replan(budget, &replan_stats).serialize();
            OpgParams fresh_params = params;
            fresh_params.memo = nullptr;
            fresh_params.mPeak = budget;
            LcOpgPlanner fresh(g, cap, km, fresh_params);
            EXPECT_EQ(replanned, fresh.plan(&fresh_stats).serialize());
            EXPECT_EQ(reuseInvariantStats(replan_stats),
                      reuseInvariantStats(fresh_stats));
            EXPECT_GT(replan_stats.memoHits, 0u);
            EXPECT_EQ(fresh_stats.memoHits, 0u);
        }
        EXPECT_EQ(planner.replan(mib(500)).serialize(), first);
    }
}

TEST(LcOpg, ClockStoppedSolvesAreCountedAndNeverStored)
{
    // The wall-clock backstop makes a window's result depend on host
    // speed: every such window is counted, and its solves stay out of
    // the memo's exact store.
    auto g = toyGraph(8);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(256);
    // Every search stops at its first clock check, at decision 0.
    params.solverTimePerWindow = 1e-9;
    PlanMemo memo;
    params.memo = &memo;
    PlanStats first, second;
    LcOpgPlanner(g, cap, km, params).plan(&first);
    LcOpgPlanner(g, cap, km, params).plan(&second);
    for (const auto *st : {&first, &second}) {
        ASSERT_GT(st->windows, 1);
        EXPECT_EQ(st->timeLimitedWindows, st->windows);
        EXPECT_EQ(st->memoHits, 0u);
        EXPECT_EQ(st->solverDecisions, 0u);
    }
    EXPECT_EQ(memo.solveCount(), 0u);

    // With a backstop the decision budget always beats, the same
    // plan stores its solves.
    params.solverTimePerWindow = 60.0;
    PlanStats unhurried;
    LcOpgPlanner(g, cap, km, params).plan(&unhurried);
    EXPECT_EQ(unhurried.timeLimitedWindows, 0);
    EXPECT_GT(memo.solveCount(), 0u);
}

TEST(PlanMemo, ConcurrentHammer)
{
    PlanMemo memo(32); // small: forces LRU eviction under contention
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    // FMLINT(allow:cross-thread-state) test-only failure latch: writers only ever increment, final zero-check is order-independent
    std::atomic<std::uint64_t> corrupt{0};
    // Entries encode the key in the value, so readers can check they
    // never observe torn or misfiled entries.
    auto solve_key = [](std::uint64_t fp) {
        return SolveKey{fp, {static_cast<std::int64_t>(fp)}, 1, 0};
    };

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&memo, &corrupt, &solve_key, t]() {
            Rng rng(1234 + t);
            for (int i = 0; i < kOpsPerThread; ++i) {
                auto fp = static_cast<std::uint64_t>(
                    rng.uniformInt(0, 99));
                const auto key = static_cast<std::int64_t>(fp);
                if (rng.uniform() < 0.5) {
                    memo.storeSolve(solve_key(fp), feasibleResult(key));
                } else {
                    auto r = memo.lookupSolve(solve_key(fp));
                    if (r && (r->values.size() != 1 ||
                              r->values[0] != key))
                        ++corrupt;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(corrupt.load(), 0u);
    // More than 32 distinct keys were stored: the store is full and
    // bounded.
    EXPECT_EQ(memo.solveCount(), 32u);
    // Entries that survived still satisfy the key-in-value invariant.
    for (std::uint64_t fp = 0; fp < 100; ++fp) {
        auto r = memo.lookupSolve(solve_key(fp));
        if (r) {
            ASSERT_EQ(r->values.size(), 1u);
            EXPECT_EQ(r->values[0], static_cast<std::int64_t>(fp));
        }
    }
}

// ----------------------------------------------------------------- Fusion

TEST(Fusion, InitialPartitionCoversGraphOnce)
{
    auto g = toyGraph(3);
    FusionPass fusion(g);
    auto partition = fusion.initialPartition();

    std::set<graph::NodeId> seen;
    for (const auto &grp : partition) {
        for (auto m : grp.members) {
            EXPECT_TRUE(seen.insert(m).second) << "duplicate node " << m;
        }
    }
    EXPECT_EQ(seen.size(), g.layerCount());
}

TEST(Fusion, ChainsAreSingleConsumer)
{
    auto g = toyGraph(3);
    FusionPass fusion(g);
    auto partition = fusion.initialPartition();
    for (const auto &grp : partition) {
        for (std::size_t i = 0; i + 1 < grp.members.size(); ++i) {
            auto consumers = g.consumersOf(grp.members[i]);
            ASSERT_EQ(consumers.size(), 1u);
            EXPECT_EQ(consumers[0], grp.members[i + 1]);
        }
    }
}

TEST(Fusion, MaterializePreservesTotals)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    FusionPass fusion(g);
    auto fused = fusion.materialize(fusion.initialPartition());

    EXPECT_LT(fused.layerCount(), g.layerCount());
    EXPECT_EQ(fused.totalMacs(), g.totalMacs());
    EXPECT_EQ(fused.totalParams(), g.totalParams());
    EXPECT_EQ(fused.totalWeightBytes(), g.totalWeightBytes());
    EXPECT_EQ(fused.weightCount(), g.weightCount());
    EXPECT_TRUE(fused.validate(false));
}

TEST(Fusion, SingletonPartitionIsIdentity)
{
    auto g = toyGraph(2);
    FusionPass fusion(g);
    auto fused = fusion.materialize(fusion.singletonPartition());
    EXPECT_EQ(fused.layerCount(), g.layerCount());
    EXPECT_EQ(fused.totalMacs(), g.totalMacs());
}

TEST(Fusion, RestrictiveKindOrdering)
{
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::MatMul, OpKind::GeLU}),
              OpKind::GeLU);
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::MatMul, OpKind::Softmax, OpKind::Add}),
              OpKind::Softmax);
    EXPECT_EQ(FusionPass::restrictiveKind({OpKind::MatMul}),
              OpKind::MatMul);
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::Reshape, OpKind::Add}),
              OpKind::Reshape);
}

TEST(Fusion, SplitPeelsElementalTail)
{
    // Build matmul -> bias-ish add -> gelu chain and fuse it.
    GraphBuilder b("chain", Precision::FP16);
    auto x = b.input({64, 256});
    auto m = b.matmul(x, 256, "mm", false);
    auto a = b.activation(m, OpKind::GeLU, "gelu");
    auto g = b.build();
    (void)a;

    FusionPass fusion(g);
    FusionGroup grp{{1, 2}}; // matmul, gelu
    FusionGroup head, tail;
    ASSERT_TRUE(fusion.splitGroup(grp, &head, &tail));
    EXPECT_EQ(head.members, (std::vector<graph::NodeId>{1}));
    EXPECT_EQ(tail.members, (std::vector<graph::NodeId>{2}));
}

TEST(Fusion, HierarchicalGroupsRetainedIntact)
{
    GraphBuilder b("h", Precision::FP16);
    auto x = b.input({64, 256});
    auto n = b.layerNorm(x, "ln");
    auto s = b.scale(n, "scale");
    auto g = b.build();
    (void)s;

    FusionPass fusion(g);
    FusionGroup grp{{1, 2}};
    FusionGroup head, tail;
    EXPECT_FALSE(fusion.splitGroup(grp, &head, &tail));
}

TEST(Fusion, SpecForGroupAggregates)
{
    auto g = toyGraph(1);
    FusionPass fusion(g);
    // fc1 -> gelu chain: nodes 2 and 3 in toyGraph ordering.
    FusionGroup grp{{2, 3}};
    auto spec = fusion.specForGroup(grp);
    EXPECT_EQ(spec.macs, g.node(2).macs + g.node(3).macs);
    // Output is the tail's output; input excludes the internal edge.
    EXPECT_EQ(spec.outputBytes, g.node(3).output.bytes());
    EXPECT_EQ(spec.inputBytes, g.inputBytes(2));
}

// --------------------------------------------------------- KernelRewriter

TEST(KernelRewriter, RenderSubstitutesPlaceholders)
{
    auto out = KernelRewriter::renderTemplate(
        "kernel {{name}} tiles={{k_tiles}}",
        {{"name", "mm"}, {"k_tiles", "8"}});
    EXPECT_EQ(out, "kernel mm tiles=8");
}

TEST(KernelRewriter, UnresolvedKeyDies)
{
    EXPECT_DEATH(KernelRewriter::renderTemplate("{{missing}}", {}),
                 "unresolved template key");
}

TEST(KernelRewriter, SelectsTemplatesByPlan)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    KernelRewriter rewriter(g, plan, true);
    auto kernels = rewriter.rewriteAll();
    ASSERT_EQ(kernels.size(), g.layerCount());

    int pipelined = 0, plain = 0;
    for (const auto &k : kernels) {
        if (k.tmpl == KernelTemplate::PipelinedBranchFree) {
            ++pipelined;
            EXPECT_GT(k.inlineLoadBytes, 0u);
            EXPECT_TRUE(k.spec.pipelined);
            EXPECT_NE(k.source.find("drain loop"), std::string::npos);
        } else if (k.tmpl == KernelTemplate::Plain) {
            ++plain;
            EXPECT_EQ(k.inlineLoadBytes, 0u);
        }
    }
    EXPECT_GT(pipelined, 0);
    EXPECT_GT(plain, 0);
}

TEST(KernelRewriter, BranchyModeForAblation)
{
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    KernelRewriter rewriter(g, plan, /*branch_free=*/false);
    bool saw_branchy = false;
    for (const auto &k : rewriter.rewriteAll()) {
        if (k.inlineLoadBytes > 0) {
            EXPECT_EQ(k.tmpl, KernelTemplate::BranchyOverlap);
            EXPECT_FALSE(k.spec.pipelined);
            EXPECT_NE(k.source.find("divergent"), std::string::npos);
            saw_branchy = true;
        }
    }
    EXPECT_TRUE(saw_branchy);
}

// ---------------------------------------------------------------- Runtime

TEST(Runtime, MemoryFullyRetiredAfterRun)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim(DeviceProfile::onePlus12());
    StreamingRuntime runtime(sim, g, plan);
    auto r = runtime.run();
    EXPECT_GT(r.integratedLatency(), 0);
    // Every byte allocated during the run must have been freed.
    EXPECT_EQ(sim.memory().used(), 0u);
}

TEST(Runtime, IntegratedCoversInitAndExec)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim(DeviceProfile::onePlus12());
    StreamingRuntime runtime(sim, g, plan);
    auto r = runtime.run();
    EXPECT_EQ(r.integratedLatency(),
              r.initLatency() + r.execLatency());
    EXPECT_EQ(r.kernels, g.layerCount());
}

TEST(Runtime, ArrivalShiftsTimelineNotDuration)
{
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim1(DeviceProfile::onePlus12());
    auto r1 = StreamingRuntime(sim1, g, plan).run();

    GpuSimulator sim2(DeviceProfile::onePlus12());
    RunConfig cfg;
    cfg.arrival = seconds(2.0);
    auto r2 = StreamingRuntime(sim2, g, plan).run(cfg);

    EXPECT_EQ(r2.start, seconds(2.0));
    EXPECT_EQ(r1.integratedLatency(), r2.integratedLatency());
}

TEST(Runtime, SlowDiskIncreasesStalls)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator fast(DeviceProfile::onePlus12());
    auto fast_r = StreamingRuntime(fast, g, plan).run();

    auto slow_dev = DeviceProfile::onePlus12();
    slow_dev.diskToUm = Bandwidth::mbps(300);
    GpuSimulator slow(slow_dev);
    auto slow_r = StreamingRuntime(slow, g, plan).run();

    EXPECT_GT(slow_r.stallTime, fast_r.stallTime);
    EXPECT_GT(slow_r.integratedLatency(), fast_r.integratedLatency());
}

TEST(Runtime, BranchFreeBeatsBranchy)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator s1(DeviceProfile::onePlus12());
    RunConfig piped;
    piped.branchFreeKernels = true;
    auto r1 = StreamingRuntime(s1, g, plan).run(piped);

    GpuSimulator s2(DeviceProfile::onePlus12());
    RunConfig branchy;
    branchy.branchFreeKernels = false;
    auto r2 = StreamingRuntime(s2, g, plan).run(branchy);

    EXPECT_LT(r1.integratedLatency(), r2.integratedLatency());
}

TEST(Runtime, DeterministicAcrossRuns)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator s1(DeviceProfile::onePlus12());
    auto r1 = StreamingRuntime(s1, g, plan).run();
    GpuSimulator s2(DeviceProfile::onePlus12());
    auto r2 = StreamingRuntime(s2, g, plan).run();
    EXPECT_EQ(r1.integratedLatency(), r2.integratedLatency());
    EXPECT_EQ(r1.peakMemory, r2.peakMemory);
    EXPECT_DOUBLE_EQ(r1.avgMemoryBytes, r2.avgMemoryBytes);
}

// ----------------------------------------------------------------- Facade

TEST(FlashMemFacade, CompileProducesConsistentArtifacts)
{
    core::FlashMem fm(DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::ViT);
    auto compiled = fm.compile(g);

    EXPECT_TRUE(compiled.plan.validate(compiled.fusedGraph, false));
    EXPECT_EQ(compiled.kernels.size(),
              compiled.fusedGraph.layerCount());
    EXPECT_GT(compiled.overlapFraction(), 0.3);
    EXPECT_LT(compiled.fusedGraph.layerCount(), g.layerCount());
}

TEST(FlashMemFacade, AblationFusionReducesKernels)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);

    FlashMemOptions no_fusion;
    no_fusion.adaptiveFusion = false;
    core::FlashMem fm_plain(DeviceProfile::onePlus12(), no_fusion);
    auto plain = fm_plain.compile(g);

    core::FlashMem fm_fused(DeviceProfile::onePlus12());
    auto fused = fm_fused.compile(g);

    EXPECT_EQ(plain.fusedGraph.layerCount(), g.layerCount());
    EXPECT_LT(fused.fusedGraph.layerCount(),
              plain.fusedGraph.layerCount());
}

TEST(FlashMemFacade, FullSystemFastestAmongAblations)
{
    auto g = models::buildModel(models::ModelId::ViT);

    FlashMemOptions opg_only;
    opg_only.adaptiveFusion = false;
    opg_only.kernelRewriting = false;

    FlashMemOptions with_fusion = opg_only;
    with_fusion.adaptiveFusion = true;

    FlashMemOptions full; // fusion + rewriting

    struct Outcome
    {
        SimTime integrated;
        SimTime computeBusy;
    };
    auto run = [&](const FlashMemOptions &opt) -> Outcome {
        core::FlashMem fm(DeviceProfile::onePlus12(), opt);
        auto compiled = fm.compile(g);
        GpuSimulator sim(DeviceProfile::onePlus12());
        auto r = fm.execute(sim, compiled);
        return {r.integratedLatency(), sim.computeQueue().busyTime()};
    };

    auto opg = run(opg_only);
    auto fus = run(with_fusion);
    auto ful = run(full);

    // GPU-side work strictly shrinks as optimizations stack: fusion
    // removes launches + intermediate traffic, rewriting removes
    // divergence penalties.
    EXPECT_LT(fus.computeBusy, opg.computeBusy);
    EXPECT_LE(ful.computeBusy, fus.computeBusy);
    // Integrated latency is disk-bound for ViT, so fusion's
    // capacity-vs-launch trade-off may shift it slightly; the full
    // system must stay within a few percent of the OPG-only plan and
    // never regress materially.
    EXPECT_LT(static_cast<double>(ful.integrated),
              1.03 * static_cast<double>(opg.integrated));
}

TEST(FlashMemFacade, RecompilationReusesPlanMemo)
{
    // The FlashMem owns a memo: a repeat compile completes its window
    // rounds from it and ships the plan a search would have.
    core::FlashMem fm(DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    auto first = fm.compile(g);
    auto second = fm.compile(g);
    // Only a search the wall clock stopped is not stored.
    EXPECT_EQ(first.stats.timeLimitedWindows, 0);
    EXPECT_GT(second.planMemoHits, 0u);
    EXPECT_EQ(first.plan.serialize(), second.plan.serialize());
    EXPECT_EQ(first.totalSolverDecisions, second.totalSolverDecisions);
}

TEST(FlashMemFacade, RunsGpt27BWithinOnePlus12Budget)
{
    // The headline claim: GPTN-2.7B (5.2 GB of fp16 weights) executes
    // under FlashMem on a device where preloading frameworks OOM.
    core::FlashMem fm(DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::GPTNeo2_7B);
    auto r = fm.runOnce(g);
    EXPECT_FALSE(r.oom);
    EXPECT_LT(r.peakMemory, DeviceProfile::onePlus12().appMemoryBudget);
}

} // namespace
} // namespace flashmem::core
