/**
 * @file
 * Tests for the baseline frameworks, the naive overlap strategies, the
 * multi-DNN FIFO scheduler, and the metrics helpers — including the
 * cross-framework integration properties behind Tables 1/7/8 and
 * Figures 6/9/10.
 */

#include <gtest/gtest.h>

#include "baselines/framework.hh"
#include "baselines/naive_overlap.hh"
#include "baselines/preload_framework.hh"
#include "core/flashmem.hh"
#include "core/runtime.hh"
#include "metrics/report.hh"
#include "models/model_zoo.hh"
#include "multidnn/scheduler.hh"
#include "multidnn/workload.hh"

namespace flashmem::baselines {
namespace {

using core::FlashMem;
using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using models::ModelId;

TEST(FrameworkTraits, AllSixPresent)
{
    EXPECT_EQ(allFrameworks().size(), 6u);
    for (auto id : allFrameworks())
        EXPECT_FALSE(frameworkTraits(id).name.empty());
}

TEST(FrameworkTraits, ExecuTorchHasNoTexturePipeline)
{
    const auto &t = frameworkTraits(FrameworkId::ExecuTorch);
    EXPECT_TRUE(t.buffersOnly);
    EXPECT_TRUE(t.fp32Storage);
    EXPECT_GT(t.execSlowdown, 10.0);
}

TEST(Support, NcnnRejectsTransformers)
{
    PreloadFramework ncnn(FrameworkId::NCNN,
                          DeviceProfile::onePlus12());
    auto vit = models::buildModel(ModelId::ViT);
    auto resnet = models::buildModel(ModelId::ResNet50);
    EXPECT_EQ(ncnn.supports(vit), SupportStatus::MissingOperator);
    EXPECT_EQ(ncnn.supports(resnet), SupportStatus::Supported);
}

TEST(Support, LiteRtSupportsOnlyVisionClassifiers)
{
    // Paper Table 7: LiteRT runs ResNet50, ViT, DeepViT and nothing
    // else among the evaluated models.
    PreloadFramework litert(FrameworkId::LiteRT,
                            DeviceProfile::onePlus12());
    for (const auto &spec : models::modelZoo()) {
        auto g = models::buildModel(spec.id);
        bool expected = spec.id == ModelId::ResNet50 ||
                        spec.id == ModelId::ViT ||
                        spec.id == ModelId::DeepViT;
        EXPECT_EQ(litert.supports(g) == SupportStatus::Supported,
                  expected)
            << spec.abbr;
    }
}

TEST(Support, MatrixMatchesPaperTable7)
{
    // Spot-check the published "-" pattern for the other frameworks.
    auto dev = DeviceProfile::onePlus12();
    auto supported = [&](FrameworkId id, ModelId m) {
        auto g = models::buildModel(m);
        return PreloadFramework(id, dev).supports(g) ==
               SupportStatus::Supported;
    };
    // MNN: no SAM-2, no GPT-Neo >= 1.3B.
    EXPECT_FALSE(supported(FrameworkId::MNN, ModelId::SAM2));
    EXPECT_FALSE(supported(FrameworkId::MNN, ModelId::GPTNeo1_3B));
    EXPECT_TRUE(supported(FrameworkId::MNN, ModelId::SDUNet));
    EXPECT_TRUE(supported(FrameworkId::MNN, ModelId::WhisperMedium));
    // TVM: no SAM-2 / SD-UNet / large GPT-Neo.
    EXPECT_FALSE(supported(FrameworkId::TVM, ModelId::SAM2));
    EXPECT_FALSE(supported(FrameworkId::TVM, ModelId::SDUNet));
    EXPECT_TRUE(supported(FrameworkId::TVM, ModelId::WhisperMedium));
    // ExecuTorch: runs SAM-2 and GPTN-1.3B, but not Whisper/DepthA.
    EXPECT_TRUE(supported(FrameworkId::ExecuTorch, ModelId::SAM2));
    EXPECT_TRUE(
        supported(FrameworkId::ExecuTorch, ModelId::GPTNeo1_3B));
    EXPECT_FALSE(
        supported(FrameworkId::ExecuTorch, ModelId::WhisperMedium));
    EXPECT_FALSE(
        supported(FrameworkId::ExecuTorch, ModelId::DepthAnythingL));
    // SmartMem: everything converts (2.7B then OOMs at runtime).
    for (const auto &spec : models::modelZoo()) {
        EXPECT_TRUE(supported(FrameworkId::SmartMem, spec.id))
            << spec.abbr;
    }
}

TEST(PreloadRun, InitDominatedByTransform)
{
    // Table 1: data transformation dwarfs disk loading for MNN.
    PreloadFramework mnn(FrameworkId::MNN, DeviceProfile::onePlus12());
    auto g = models::buildModel(ModelId::ViT);
    GpuSimulator sim(DeviceProfile::onePlus12());
    auto r = mnn.run(sim, g);

    SimTime disk_time =
        DeviceProfile::onePlus12().diskToUm.transferTime(
            g.totalWeightBytes());
    EXPECT_GT(r.initLatency(), 5 * disk_time);
    EXPECT_GT(r.initLatency(), r.execLatency());
}

TEST(PreloadRun, MemoryBalancedAfterRun)
{
    PreloadFramework mnn(FrameworkId::MNN, DeviceProfile::onePlus12());
    auto g = models::buildModel(ModelId::ResNet50);
    GpuSimulator sim(DeviceProfile::onePlus12());
    mnn.run(sim, g);
    EXPECT_EQ(sim.memory().used(), 0u);
}

TEST(PreloadRun, PeakMemoryMultipleOfWeights)
{
    PreloadFramework mnn(FrameworkId::MNN, DeviceProfile::onePlus12());
    auto g = models::buildModel(ModelId::WhisperMedium);
    GpuSimulator sim(DeviceProfile::onePlus12());
    auto r = mnn.run(sim, g);
    double ratio = static_cast<double>(r.peakMemory) /
                   static_cast<double>(g.totalWeightBytes());
    // Staging + UM copy + texture copy: 2.5-6x (Table 1 zone).
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 7.0);
}

TEST(PreloadRun, Gpt27BOomsOnEveryPreloadFramework)
{
    auto g = models::buildModel(ModelId::GPTNeo2_7B);
    for (auto id : allFrameworks()) {
        PreloadFramework fw(id, DeviceProfile::onePlus12());
        if (fw.supports(g) != SupportStatus::Supported)
            continue;
        GpuSimulator sim(DeviceProfile::onePlus12());
        auto r = fw.run(sim, g);
        EXPECT_TRUE(r.oom) << fw.name();
    }
}

TEST(PreloadRun, Gpt13BOomsOnSmallDevicesUnderSmartMem)
{
    // Figure 10: GPTN-1.3B is unsupported on Xiaomi Mi 6 and Pixel 8
    // under SmartMem but fine on the OnePlus 12.
    auto g = models::buildModel(ModelId::GPTNeo1_3B);

    for (const auto &dev :
         {DeviceProfile::xiaomiMi6(), DeviceProfile::pixel8()}) {
        PreloadFramework smem(FrameworkId::SmartMem, dev);
        GpuSimulator sim(dev);
        EXPECT_TRUE(smem.run(sim, g).oom) << dev.name;
    }
    PreloadFramework smem(FrameworkId::SmartMem,
                          DeviceProfile::onePlus12());
    GpuSimulator sim(DeviceProfile::onePlus12());
    EXPECT_FALSE(smem.run(sim, g).oom);
}

TEST(PreloadRun, FlashMemRuns13BOnEveryDevice)
{
    auto g = models::buildModel(ModelId::GPTNeo1_3B);
    for (const auto &dev :
         {DeviceProfile::onePlus12(), DeviceProfile::onePlus11(),
          DeviceProfile::pixel8(), DeviceProfile::xiaomiMi6()}) {
        FlashMem fm(dev);
        auto r = fm.runOnce(g);
        EXPECT_FALSE(r.oom) << dev.name;
    }
}

TEST(Comparison, FlashMemBeatsAllBaselinesIntegrated)
{
    // The core Table-7 property on a representative model.
    auto g = models::buildModel(ModelId::ViT);
    FlashMem fm(DeviceProfile::onePlus12());
    auto flash = fm.runOnce(g);

    for (auto id : allFrameworks()) {
        PreloadFramework fw(id, DeviceProfile::onePlus12());
        if (fw.supports(g) != SupportStatus::Supported)
            continue;
        GpuSimulator sim(DeviceProfile::onePlus12());
        auto r = fw.run(sim, g);
        EXPECT_GT(r.integratedLatency(), flash.integratedLatency())
            << frameworkName(id);
    }
}

TEST(Comparison, FlashMemUsesLessAverageMemory)
{
    auto g = models::buildModel(ModelId::WhisperMedium);
    FlashMem fm(DeviceProfile::onePlus12());
    auto flash = fm.runOnce(g);

    for (auto id : {FrameworkId::MNN, FrameworkId::SmartMem,
                    FrameworkId::TVM}) {
        PreloadFramework fw(id, DeviceProfile::onePlus12());
        GpuSimulator sim(DeviceProfile::onePlus12());
        auto r = fw.run(sim, g);
        EXPECT_GT(r.avgMemoryBytes, 1.7 * flash.avgMemoryBytes)
            << frameworkName(id);
    }
}

/** Exec phase of a cold start on a fresh simulator: every kernel runs
 * with its weights resident, as in a warm run. */
SimTime
warmExecLatency(const PreloadFramework &fw, const graph::Graph &g)
{
    GpuSimulator sim(DeviceProfile::onePlus12());
    auto r = fw.run(sim, g);
    return r.end - r.initDone;
}

TEST(Comparison, SmartMemFastestExecAmongBaselines)
{
    auto g = models::buildModel(ModelId::ViT);
    PreloadFramework smem(FrameworkId::SmartMem,
                          DeviceProfile::onePlus12());
    auto smem_exec = warmExecLatency(smem, g);
    for (auto id : {FrameworkId::MNN, FrameworkId::TVM,
                    FrameworkId::ExecuTorch}) {
        PreloadFramework fw(id, DeviceProfile::onePlus12());
        EXPECT_GT(warmExecLatency(fw, g), smem_exec)
            << frameworkName(id);
    }
}

TEST(Comparison, ExecuTorchSlowestExec)
{
    auto g = models::buildModel(ModelId::ViT);
    PreloadFramework etorch(FrameworkId::ExecuTorch,
                            DeviceProfile::onePlus12());
    PreloadFramework mnn(FrameworkId::MNN, DeviceProfile::onePlus12());
    EXPECT_GT(warmExecLatency(etorch, g),
              10 * warmExecLatency(mnn, g));
}

// ---------------------------------------------------------- naive overlap

TEST(NaiveOverlap, PlansAreValid)
{
    auto g = models::buildModel(ModelId::GPTNeoS);
    EXPECT_TRUE(alwaysNextPlan(g).validate(g, false));
    EXPECT_TRUE(sameOpTypePlan(g).validate(g, false));
}

TEST(NaiveOverlap, Figure9Ordering)
{
    // FlashMem < Same-Op-Type < Always-Next in integrated latency.
    auto g = models::buildModel(ModelId::DeepViT);
    auto dev = DeviceProfile::onePlus12();
    FlashMem fm(dev);
    auto flash = fm.runOnce(g).integratedLatency();

    // Naive strategies interleave loads without the branch-free
    // rewrite (divergent kernels).
    core::RunConfig naive_cfg;
    naive_cfg.branchFreeKernels = false;

    GpuSimulator s1(dev);
    auto next_plan = alwaysNextPlan(g);
    auto always = core::StreamingRuntime(s1, g, next_plan)
                      .run(naive_cfg)
                      .integratedLatency();

    GpuSimulator s2(dev);
    auto same_plan = sameOpTypePlan(g);
    auto same = core::StreamingRuntime(s2, g, same_plan)
                    .run(naive_cfg)
                    .integratedLatency();

    EXPECT_LT(flash, same);
    EXPECT_LT(same, always);
    // The paper reports up to 4.3x (Always-Next) / 2.4x (Same-Op) on
    // real devices; the simulator reproduces the ordering and a clear
    // gap, though the magnitude is damped (ROADMAP.md item 5).
    EXPECT_GT(static_cast<double>(always) / flash, 1.15);
    EXPECT_LT(static_cast<double>(always) / flash, 8.0);
}

// --------------------------------------------------------------- multidnn

TEST(MultiDnn, WorkloadDeterministicAndComplete)
{
    using namespace multidnn;
    std::vector<ModelId> ms = {ModelId::ViT, ModelId::ResNet50};
    auto a = interleavedWorkload(ms, 3, milliseconds(5), 42);
    auto b = interleavedWorkload(ms, 3, milliseconds(5), 42);
    ASSERT_EQ(a.size(), 6u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
    }
    int vit = 0;
    for (const auto &r : a)
        vit += (r.model == ModelId::ViT);
    EXPECT_EQ(vit, 3);
}

TEST(MultiDnn, FifoRunsInOrder)
{
    using namespace multidnn;
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload({ModelId::ResNet50,
                                ModelId::DepthAnythingS});
    auto outcome = EventScheduler(fm).run(queue, FifoPolicy{});
    ASSERT_EQ(outcome.runs.size(), 2u);
    EXPECT_LE(outcome.runs[0].end, outcome.runs[1].start);
    EXPECT_EQ(outcome.makespan, outcome.runs[1].end);
}

TEST(MultiDnn, FlashMemPeakFarBelowMnn)
{
    // Figure 6: MNN spikes to multi-GB during each init; FlashMem stays
    // within its streaming budget.
    using namespace multidnn;
    std::vector<ModelId> ms = {ModelId::ViT, ModelId::WhisperMedium};
    auto queue = interleavedWorkload(ms, 2, 0, 7);

    FlashMem fm(DeviceProfile::onePlus12());
    auto flash = EventScheduler(fm).run(queue, FifoPolicy{});
    auto mnn = EventScheduler::runPreload(FrameworkId::MNN,
                                          DeviceProfile::onePlus12(),
                                          queue, FifoPolicy{});

    EXPECT_LT(2 * flash.peakMemory, mnn.peakMemory);
    EXPECT_LT(flash.makespan, mnn.makespan);
    EXPECT_LT(flash.energyJoules, mnn.energyJoules);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, RatioSummaryGeomean)
{
    metrics::RatioSummary s;
    s.add(2.0);
    s.add(8.0);
    EXPECT_DOUBLE_EQ(s.geomean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_EQ(s.count(), 2u);
}

TEST(Metrics, SampleTraceCoversSpan)
{
    TimeSeries ts;
    ts.record(0, 0.0);
    ts.record(seconds(1.0), static_cast<double>(mib(100)));
    ts.record(seconds(2.0), 0.0);
    auto pts = metrics::sampleTrace(ts, 11);
    ASSERT_EQ(pts.size(), 11u);
    EXPECT_DOUBLE_EQ(pts.front().seconds, 0.0);
    EXPECT_DOUBLE_EQ(pts.back().seconds, 2.0);
    EXPECT_NEAR(pts[5].megabytes, 100.0, 1.0);
}

TEST(Metrics, AsciiChartRenders)
{
    TimeSeries ts;
    ts.record(0, 0.0);
    ts.record(seconds(1.0), static_cast<double>(mib(100)));
    metrics::ChartSeries s{"mem", '*', metrics::sampleTrace(ts, 20)};
    std::ostringstream os;
    metrics::renderAsciiChart(os, {s}, 40, 8);
    EXPECT_NE(os.str().find('*'), std::string::npos);
    EXPECT_NE(os.str().find("mem"), std::string::npos);
}

} // namespace
} // namespace flashmem::baselines
