/**
 * @file
 * Stream-program replay gate. A StreamingRuntime is built once per
 * artifact and replayed by every execution; the replay must make the
 * same timeline reservations and memory events at the same times as the
 * direct runtime in tests/reference_runtime.hh. For every Table-6 model,
 * compiled and re-planned at a tight budget, with branch-free and
 * branchy kernels, on fresh simulators of two devices and back to back
 * on one shared simulator, every RunResult field, every total-trace
 * point, the activity totals and the per-kind peaks must be equal.
 *
 * The one plan shape on which the two differ, a weight assigned twice
 * in one layer, is pinned on a hand-built plan: the replay treats the
 * two assignments as one.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/flashmem.hh"
#include "gpusim/memory.hh"
#include "graph/builder.hh"
#include "models/model_zoo.hh"
#include "reference_runtime.hh"

namespace flashmem::core {
namespace {

using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using gpusim::MemKind;

/** One Table-6 model; prints (and so names its ctest case) by abbr. */
struct Table6Model
{
    models::ModelId id{};
};

void
PrintTo(const Table6Model &m, std::ostream *os)
{
    *os << models::modelSpec(m.id).abbr;
}

std::vector<Table6Model>
table6Models()
{
    std::vector<Table6Model> out;
    for (const auto &spec : models::modelZoo())
        out.push_back({spec.id});
    return out;
}

/** Re-plan budget well below every model's working set. */
constexpr Bytes kTightBudget = mib(64);

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.initDone, b.initDone);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.latencyBound, b.latencyBound);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.stallTime, b.stallTime);
    EXPECT_EQ(a.peakMemory, b.peakMemory);
    EXPECT_EQ(a.avgMemoryBytes, b.avgMemoryBytes);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.kernels, b.kernels);
}

void
expectSameSimulator(const GpuSimulator &a, const GpuSimulator &b)
{
    const auto &pa = a.memory().totalTrace().points();
    const auto &pb = b.memory().totalTrace().points();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].time != pb[i].time || pa[i].value != pb[i].value) {
            ADD_FAILURE() << "trace point " << i << " of " << pa.size()
                          << ": (" << pa[i].time << ", " << pa[i].value
                          << ") vs (" << pb[i].time << ", "
                          << pb[i].value << ")";
            return;
        }
    }
    const auto horizon = std::max(a.horizon(), b.horizon());
    const auto aa = a.activity(horizon);
    const auto ab = b.activity(horizon);
    EXPECT_EQ(aa.computeBusy, ab.computeBusy);
    EXPECT_EQ(aa.diskBusy, ab.diskBusy);
    EXPECT_EQ(aa.bytesMoved, ab.bytesMoved);
    EXPECT_EQ(a.memory().peak(), b.memory().peak());
    for (auto kind : {MemKind::UnifiedWeights, MemKind::TextureWeights,
                      MemKind::Activations, MemKind::Scratch}) {
        SCOPED_TRACE(gpusim::memKindName(kind));
        EXPECT_EQ(a.memory().peak(kind), b.memory().peak(kind));
        EXPECT_EQ(a.memory().used(kind), b.memory().used(kind));
    }
}

/** True when some layer of @p plan assigns one weight twice. */
bool
assignsAWeightTwiceInALayer(const graph::Graph &g, const OverlapPlan &plan)
{
    for (graph::NodeId l = 0;
         l < static_cast<graph::NodeId>(g.layerCount()); ++l) {
        std::set<graph::WeightId> seen;
        for (const auto &a : plan.assignmentsAt(l)) {
            if (!seen.insert(a.weight).second)
                return true;
        }
    }
    return false;
}

class StreamProgram : public ::testing::TestWithParam<Table6Model>
{
  protected:
    void
    SetUp() override
    {
        const auto g = models::buildModel(GetParam().id);
        compiled_ = fm_.compile(g);
        replanned_ = fm_.replan(compiled_, kTightBudget);
    }

    FlashMem fm_{DeviceProfile::onePlus12()};
    CompiledModel compiled_;
    CompiledModel replanned_;
};

TEST_P(StreamProgram, ReplaysTheReferenceRuntime)
{
    const CompiledModel *artifacts[] = {&compiled_, &replanned_};
    // The reference gives such a layer other timings than the replay
    // (HandBuiltPlan.WeightAssignedTwiceInOneLayer).
    for (const auto *cm : artifacts) {
        ASSERT_FALSE(assignsAWeightTwiceInALayer(cm->fusedGraph, cm->plan))
            << (cm->replans ? "re-planned" : "compiled");
    }
    for (bool branch_free : {true, false}) {
        SCOPED_TRACE(branch_free ? "branch-free" : "branchy");
        RunConfig cfg;
        cfg.branchFreeKernels = branch_free;

        // A fresh simulator per run, on the compile target and on a
        // slower phone: the program carries no device.
        for (const auto *cm : artifacts) {
            SCOPED_TRACE(cm->replans ? "re-planned" : "compiled");
            for (const auto &dev :
                 {DeviceProfile::onePlus12(), DeviceProfile::xiaomiMi6()}) {
                SCOPED_TRACE(dev.name);
                GpuSimulator replay(dev), reference(dev);
                auto r = cm->runtime.run(replay, cfg);
                auto ref =
                    referenceRun(reference, cm->fusedGraph, cm->plan, cfg);
                expectSameResult(r, ref);
                expectSameSimulator(replay, reference);
            }
        }

        // Back to back on one shared simulator, each run arriving while
        // the previous one is half done.
        GpuSimulator replay(fm_.device()), reference(fm_.device());
        for (const auto *cm : {&compiled_, &replanned_, &compiled_}) {
            SCOPED_TRACE(cfg.arrival);
            auto r = cm->runtime.run(replay, cfg);
            auto ref =
                referenceRun(reference, cm->fusedGraph, cm->plan, cfg);
            expectSameResult(r, ref);
            expectSameSimulator(replay, reference);
            cfg.arrival = r.start + r.integratedLatency() / 2;
        }
    }
}

TEST_P(StreamProgram, KernelsCarryTheBytesTheirRunMoves)
{
    for (const auto *cm : {&compiled_, &replanned_}) {
        SCOPED_TRACE(cm->replans ? "re-planned" : "compiled");
        std::vector<Bytes> moved;
        GpuSimulator sim(fm_.device());
        referenceRun(sim, cm->fusedGraph, cm->plan, {}, &moved);
        ASSERT_EQ(cm->kernels.size(), moved.size());
        Bytes total = 0;
        for (std::size_t l = 0; l < moved.size(); ++l) {
            EXPECT_EQ(cm->kernels[l].inlineLoadBytes, moved[l])
                << "layer " << l;
            total += cm->kernels[l].inlineLoadBytes;
        }
        EXPECT_EQ(total, cm->plan.streamedBytes(cm->fusedGraph));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table6, StreamProgram, ::testing::ValuesIn(table6Models()),
    [](const ::testing::TestParamInfo<Table6Model> &info) {
        std::string name = models::modelSpec(info.param.id).abbr;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(HandBuiltPlan, WeightAssignedTwiceInOneLayer)
{
    // input -> fc. fc's 1280 x 1024 FP16 weight is 2.5 MiB: chunks of
    // 1, 1 and 0.5 MiB. It streams whole, read as layer 0 starts, and
    // layer 0 transforms it as two assignments, 1 chunk then 2.
    graph::GraphBuilder b("twice", Precision::FP16);
    b.matmul(b.input({16, 1280}), 1024, "fc", /*bias=*/false);
    const auto g = b.build();
    ASSERT_EQ(g.weightCount(), 1u);
    const auto &w = g.weight(0);
    ASSERT_EQ(w.bytes(), mib(2) + kib(512));
    OverlapPlan twice(g, mib(1)), once(g, mib(1));
    for (auto *plan : {&twice, &once})
        plan->setEarliestLoad(w.id, 0);
    twice.addAssignment(w.id, 0, 1);
    twice.addAssignment(w.id, 0, 2);
    once.addAssignment(w.id, 0, 3);
    ASSERT_TRUE(twice.validate(g, false));

    // Each layer's moved bytes: the second assignment is capped at the
    // 1.5 MiB the first left, so layer 0 moves the weight once.
    const auto moved = twice.movedBytes(g);
    ASSERT_EQ(moved.size(), 2u);
    EXPECT_EQ(moved[0], (std::vector<Bytes>{mib(1), mib(1) + kib(512)}));
    EXPECT_TRUE(moved[1].empty());
    const auto kernels = KernelRewriter(g, twice).rewriteAll();
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_EQ(kernels[0].inlineLoadBytes, w.bytes());
    EXPECT_EQ(kernels[1].inlineLoadBytes, 0u);
    EXPECT_EQ(kernels[0].inlineLoadBytes + kernels[1].inlineLoadBytes,
              twice.streamedBytes(g));

    // Kernel 0 needs both assignments' chunks, the whole read, on
    // unified memory: it starts when the read ends, and kernel 1
    // follows it without a stall.
    const auto dev = DeviceProfile::onePlus12();
    GpuSimulator disk_only(dev);
    const auto read = disk_only.disk().transfer(0, w.bytes());
    GpuSimulator sim(dev);
    const auto r = StreamingRuntime(g, twice).run(sim);
    EXPECT_EQ(r.stallTime, read.end);
    EXPECT_EQ(sim.memory().used(), 0u);

    // So the replay equals one 3-chunk assignment, which the reference
    // runtime gives the same timings.
    GpuSimulator merged(dev), reference(dev);
    expectSameResult(r, StreamingRuntime(g, once).run(merged));
    expectSameSimulator(sim, merged);
    expectSameResult(r, referenceRun(reference, g, once));
    expectSameSimulator(sim, reference);
}

TEST(StreamProgramDeathTest, ExecuteDiesOnAPlanEditedAfterCompile)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto cm = fm.compile(models::buildModel(models::ModelId::ViT));
    const auto &w = cm.fusedGraph.weights().back();
    ASSERT_GT(w.consumer, 0);
    // One chunk more than the weight has: C0 fails, though the stream
    // program built at compile knows nothing of the edit.
    cm.plan.addAssignment(w.id, 0, 1);
    GpuSimulator sim(fm.device());
    EXPECT_DEATH(fm.execute(sim, cm), "overlap plan");
}

} // namespace
} // namespace flashmem::core
