/**
 * @file
 * Tests for the FlashMem core: weight slicing, overlap-plan invariants
 * and serialization, LC-OPG planning (C0-C3, one flow per window),
 * adaptive fusion, kernel rewriting, the streaming runtime, and the
 * facade's ablation behaviour.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

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

TEST(LcOpg, OneChunkBudgetPlansAreValid)
{
    // At mPeak = one chunk C2 binds in every window, so every window
    // network is at its most constrained; each window's flow must still
    // route its whole supply and fit the ledgers (the planner asserts
    // both).
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    for (auto id : {models::ModelId::ResNet50,
                    models::ModelId::DepthAnythingS,
                    models::ModelId::GPTNeoS}) {
        SCOPED_TRACE(models::modelSpec(id).abbr);
        const auto g = models::buildModel(id);
        OpgParams params;
        params.mPeak = params.chunkBytes;
        const auto plan = LcOpgPlanner(g, cap, km, params).plan();
        EXPECT_TRUE(plan.validate(g, false));
    }
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
    EXPECT_EQ(stats.windows, stats.optimalWindows + stats.feasibleWindows);
    EXPECT_GT(stats.solveSeconds, 0.0);
    EXPECT_GT(stats.processNodesSeconds, 0.0);
}

/** The 14 zoo models: the 11 Table-6 models plus the synthetic ViT-8B,
 * Llama2-13B and Llama2-70B of the Table-4 bench. */
std::vector<graph::Graph>
zooModels()
{
    std::vector<graph::Graph> out;
    for (const auto &spec : models::modelZoo())
        out.push_back(models::buildModel(spec.id));
    models::SyntheticTransformerCfg vit8b;
    vit8b.name = "vit_8b";
    vit8b.blocks = 40;
    vit8b.dModel = 4096;
    vit8b.heads = 32;
    vit8b.vocab = 1000;
    models::SyntheticTransformerCfg llama13;
    llama13.name = "llama2_13b";
    llama13.blocks = 40;
    llama13.dModel = 5120;
    llama13.heads = 40;
    llama13.ffnHidden = 13824;
    llama13.llamaStyle = true;
    models::SyntheticTransformerCfg llama70;
    llama70.name = "llama2_70b";
    llama70.blocks = 80;
    llama70.dModel = 8192;
    llama70.heads = 64;
    llama70.ffnHidden = 28672;
    llama70.kvDim = 1024;
    llama70.llamaStyle = true;
    for (const auto &cfg : {vit8b, llama13, llama70})
        out.push_back(models::buildSyntheticTransformer(cfg, Precision::FP16));
    return out;
}

TEST(LcOpg, EveryWindowShipsAtOrAboveItsBound)
{
    // The window guarantee on real plans: every window of every zoo
    // model's shipped plan scores no better than its flow bound, and
    // is Optimal exactly when it meets the bound.
    FlashMem fm(DeviceProfile::onePlus12());
    const auto zoo = zooModels();
    ASSERT_EQ(zoo.size(), 14u);
    for (const auto &g : zoo) {
        SCOPED_TRACE(g.name());
        const auto cm = fm.compile(g);
        EXPECT_TRUE(cm.plan.validate(cm.fusedGraph, false));
        const auto &st = cm.stats;
        ASSERT_EQ(st.windowSummaries.size(),
                  static_cast<std::size_t>(st.windows));
        for (const auto &w : st.windowSummaries) {
            SCOPED_TRACE(w.window);
            EXPECT_LE(w.bound, w.objective);
            EXPECT_EQ(w.status == solver::SolveStatus::Optimal,
                      w.objective == w.bound);
        }
    }
}

// ------------------------------------------- Re-balancing + re-planning

/**
 * C3 and C2 rebuilt from @p plan alone: no layer transforms more
 * chunks than its load capacity, and no layer holds more than
 * @p mPeak of streamed chunks in flight.
 */
void
expectCapacitiesAndInflight(const graph::Graph &g, const OverlapPlan &plan,
                            const profiler::CapacityProvider &cap,
                            Bytes mPeak)
{
    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    const std::int64_t mpeak_chunks =
        static_cast<std::int64_t>(mPeak / plan.chunkBytes());
    std::vector<std::int64_t> inflight(layers, 0);
    for (graph::NodeId l = 0; l < layers; ++l) {
        std::int64_t load = 0;
        for (const auto &a : plan.assignmentsAt(l)) {
            load += a.chunks;
            for (auto p = l; p < g.weight(a.weight).consumer; ++p)
                inflight[p] += a.chunks;
        }
        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = true;
        EXPECT_LE(load, cap.capacityChunks(spec, plan.chunkBytes()))
            << "layer " << l;
    }
    for (graph::NodeId p = 0; p < layers; ++p)
        EXPECT_LE(inflight[p], mpeak_chunks) << "layer " << p;
}

TEST(LcOpg, RebalancedPlanRespectsCapacitiesAndInflight)
{
    // Windows commit in order against the live ledgers and the
    // re-balancing pass tops up from what they left, so per-layer load
    // capacities (C3) and the in-flight bound (C2) must hold across
    // window boundaries. Rebuilt independently from every zoo model's
    // shipped plan at default and Figure-6 options (1 GiB, lambda
    // 0.5), and from a re-plan of each at 64 MiB.
    FlashMemOptions fig6;
    fig6.opg.mPeak = mib(1024);
    fig6.opg.lambda = 0.5;
    const auto zoo = zooModels();
    std::int64_t rebalanced = 0;
    int multi_window = 0;
    for (const auto &opt : {FlashMemOptions{}, fig6}) {
        SCOPED_TRACE(opt.opg.mPeak);
        FlashMem fm(DeviceProfile::onePlus12(), opt);
        KernelModel km(DeviceProfile::onePlus12());
        profiler::AnalyticCapacityProvider cap(km, opt.thresholds);
        for (const auto &g : zoo) {
            SCOPED_TRACE(g.name());
            const auto cm = fm.compile(g);
            expectCapacitiesAndInflight(cm.fusedGraph, cm.plan, cap,
                                        opt.opg.mPeak);
            const auto re = fm.replan(cm, mib(64));
            expectCapacitiesAndInflight(re.fusedGraph, re.plan, cap,
                                        mib(64));
            rebalanced += cm.stats.rebalancedChunks +
                          re.stats.rebalancedChunks;
            multi_window += cm.stats.windows > 1;
        }
    }
    // The pass ran, and the plans span windows.
    EXPECT_GT(rebalanced, 0);
    EXPECT_EQ(multi_window, 2 * static_cast<int>(zoo.size()));
}

/** Every PlanStats counter: all but host times. */
std::string
planCounters(const PlanStats &s)
{
    std::ostringstream os;
    os << static_cast<int>(s.overallStatus) << ' ' << s.windows << ' '
       << s.optimalWindows << ' ' << s.feasibleWindows << ' '
       << s.rebalancedChunks << ' ' << s.solverDecisions << '\n';
    for (const auto &w : s.windowSummaries) {
        os << w.window << ' ' << static_cast<int>(w.status) << ' '
           << w.objective << ' ' << w.bound << ' ' << w.augmentations
           << '\n';
    }
    return os.str();
}

TEST(LcOpg, ReplanEqualsAFreshPlanAtItsBudget)
{
    // FlashMem::replan at a new budget ships what a fresh planner
    // ships on the same fused graph at that budget, in plan, counters
    // and window summaries. 250 MiB binds no window of the 500 MiB
    // plan; 3 MiB binds C2 in most of them.
    auto g = models::buildModel(models::ModelId::DepthAnythingS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    FlashMemOptions opt;
    ASSERT_EQ(opt.opg.mPeak, mib(500));
    FlashMem fm(DeviceProfile::onePlus12(), opt);
    const auto compiled = fm.compile(g);
    for (Bytes budget : {mib(250), mib(3)}) {
        SCOPED_TRACE(budget);
        const auto replanned = fm.replan(compiled, budget);
        OpgParams at = opt.opg;
        at.mPeak = budget;
        PlanStats fresh_stats;
        const auto fresh = LcOpgPlanner(compiled.fusedGraph, cap, km, at)
                               .plan(&fresh_stats);
        EXPECT_EQ(replanned.plan.serialize(), fresh.serialize());
        EXPECT_EQ(planCounters(replanned.stats),
                  planCounters(fresh_stats));
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
            EXPECT_NE(k.source().find("drain loop"), std::string::npos);
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
            EXPECT_NE(k.source().find("divergent"), std::string::npos);
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
    StreamingRuntime runtime(g, plan);
    auto r = runtime.run(sim);
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
    StreamingRuntime runtime(g, plan);
    auto r = runtime.run(sim);
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
    auto r1 = StreamingRuntime(g, plan).run(sim1);

    GpuSimulator sim2(DeviceProfile::onePlus12());
    RunConfig cfg;
    cfg.arrival = seconds(2.0);
    auto r2 = StreamingRuntime(g, plan).run(sim2, cfg);

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
    auto fast_r = StreamingRuntime(g, plan).run(fast);

    auto slow_dev = DeviceProfile::onePlus12();
    slow_dev.diskToUm = Bandwidth::mbps(300);
    GpuSimulator slow(slow_dev);
    auto slow_r = StreamingRuntime(g, plan).run(slow);

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
    auto r1 = StreamingRuntime(g, plan).run(s1, piped);

    GpuSimulator s2(DeviceProfile::onePlus12());
    RunConfig branchy;
    branchy.branchFreeKernels = false;
    auto r2 = StreamingRuntime(g, plan).run(s2, branchy);

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
    auto r1 = StreamingRuntime(g, plan).run(s1);
    GpuSimulator s2(DeviceProfile::onePlus12());
    auto r2 = StreamingRuntime(g, plan).run(s2);
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
