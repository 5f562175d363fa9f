/**
 * @file
 * Tests for the mobile-GPU simulator: timelines, memory tracking,
 * the texture transform cost, the kernel latency model and its Figure-2
 * overlap-penalty curves, device profiles, and the power model.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "gpusim/device.hh"
#include "gpusim/kernel.hh"
#include "gpusim/memory.hh"
#include "gpusim/power.hh"
#include "gpusim/simulator.hh"
#include "gpusim/texture.hh"
#include "gpusim/timeline.hh"

namespace flashmem::gpusim {
namespace {

using graph::OpClass;
using graph::OpKind;

// ---------------------------------------------------------------- timeline

TEST(Timeline, SerializesReservations)
{
    Timeline t("q");
    auto a = t.reserve(0, 100);
    auto b = t.reserve(0, 50);
    EXPECT_EQ(a.start, 0);
    EXPECT_EQ(a.end, 100);
    EXPECT_EQ(b.start, 100); // waits for a
    EXPECT_EQ(b.end, 150);
    EXPECT_EQ(t.busyTime(), 150);
}

TEST(Timeline, RespectsEarliestStart)
{
    Timeline t("q");
    auto a = t.reserve(500, 100);
    EXPECT_EQ(a.start, 500);
    auto b = t.reserve(0, 10); // resource free at 600
    EXPECT_EQ(b.start, 600);
}

TEST(Timeline, ResetClearsState)
{
    Timeline t("q");
    t.reserve(0, 100);
    t.reset();
    EXPECT_EQ(t.freeAt(), 0);
    EXPECT_EQ(t.busyTime(), 0);
    EXPECT_EQ(t.reservations(), 0u);
}

TEST(BandwidthTimeline, TransferTimeMatchesBandwidth)
{
    BandwidthTimeline ch("disk", Bandwidth::gbps(1.5));
    auto iv = ch.transfer(0, 1'500'000'000ull); // 1.5 GB at 1.5 GB/s
    EXPECT_EQ(iv.duration(), seconds(1.0));
    EXPECT_EQ(ch.bytesMoved(), 1'500'000'000ull);
}

TEST(BandwidthTimeline, PerOpOverheadOnIdleChannelOnly)
{
    BandwidthTimeline ch("xf", Bandwidth::gbps(1.0), microseconds(80));
    // Idle channel: request latency applies.
    auto a = ch.transfer(0, 1'000'000);
    EXPECT_EQ(a.duration(), microseconds(80) + milliseconds(1.0));
    // Backlogged channel (earliest < freeAt): sequential continuation.
    auto b = ch.transfer(0, 1'000'000);
    EXPECT_EQ(b.duration(), milliseconds(1.0));
    EXPECT_EQ(b.start, a.end);
    // Idle again after a gap: latency returns.
    auto c = ch.transfer(b.end + seconds(1.0), 1'000'000);
    EXPECT_EQ(c.duration(), microseconds(80) + milliseconds(1.0));
}

// ------------------------------------------------------------------ memory

TEST(MemoryTracker, TracksPeakAndKinds)
{
    MemoryTracker m;
    m.alloc(MemKind::UnifiedWeights, mib(100), 0);
    m.alloc(MemKind::Activations, mib(50), milliseconds(1));
    EXPECT_EQ(m.used(), mib(150));
    m.free(MemKind::UnifiedWeights, mib(100), milliseconds(2));
    EXPECT_EQ(m.used(), mib(50));
    EXPECT_EQ(m.peak(), mib(150));
    EXPECT_EQ(m.peak(MemKind::UnifiedWeights), mib(100));
    EXPECT_EQ(m.used(MemKind::Activations), mib(50));
}

TEST(MemoryTracker, DetectsOom)
{
    MemoryTracker m(gib(1));
    m.alloc(MemKind::Scratch, mib(900), 0);
    EXPECT_FALSE(m.oomOccurred());
    m.alloc(MemKind::Scratch, mib(200), 1);
    EXPECT_TRUE(m.oomOccurred());
    // OOM flag is sticky even after frees.
    m.free(MemKind::Scratch, mib(1100), 2);
    EXPECT_TRUE(m.oomOccurred());
}

TEST(MemoryTracker, AverageIsTimeWeighted)
{
    MemoryTracker m;
    m.alloc(MemKind::Activations, mib(100), 0);
    m.alloc(MemKind::Activations, mib(100), milliseconds(10));
    m.free(MemKind::Activations, mib(200), milliseconds(20));
    // 100 MiB for 10 ms, 200 MiB for 10 ms -> 150 MiB average.
    EXPECT_NEAR(m.averageBytes(0, milliseconds(20)),
                static_cast<double>(mib(150)), 1e3);
}

TEST(MemoryTracker, OverFreeDies)
{
    MemoryTracker m;
    m.alloc(MemKind::Scratch, 100, 0);
    EXPECT_DEATH(m.free(MemKind::Scratch, 200, 1), "over-free");
}

// ----------------------------------------------------------------- texture

TEST(TransformCost, DedicatedSlowerThanInline)
{
    auto dev = DeviceProfile::onePlus12();
    Bytes bytes = mib(16);
    auto dedicated =
        dedicatedTransformCost(dev, bytes, Bandwidth::mbps(150), 2);
    // FlashMem transforms inside the compute kernel, streaming at the
    // UM->TM DMA bandwidth with no dispatch and no staging copy.
    EXPECT_GT(dedicated.time, 10 * dev.umToTm.transferTime(bytes));
    EXPECT_GT(dedicated.scratchBytes, 0u);
}

// ------------------------------------------------------------ kernel model

KernelSpec
matmulSpec(std::int64_t m, std::int64_t k, std::int64_t n)
{
    KernelSpec s;
    s.kind = OpKind::MatMul;
    s.macs = static_cast<std::uint64_t>(m) * k * n;
    s.inputBytes = static_cast<Bytes>(m) * k * 2;
    s.outputBytes = static_cast<Bytes>(m) * n * 2;
    s.weightBytes = static_cast<Bytes>(k) * n * 2;
    return s;
}

KernelSpec
elementalSpec(Bytes bytes)
{
    KernelSpec s;
    s.kind = OpKind::Add;
    s.macs = 0;
    s.inputBytes = bytes;
    s.outputBytes = bytes;
    return s;
}

KernelSpec
softmaxSpec(Bytes bytes)
{
    KernelSpec s;
    s.kind = OpKind::Softmax;
    s.macs = bytes; // a few flops per element
    s.inputBytes = bytes;
    s.outputBytes = bytes;
    return s;
}

TEST(KernelModel, LaunchOverheadFloorsLatency)
{
    KernelModel km(DeviceProfile::onePlus12());
    KernelSpec tiny = elementalSpec(16);
    EXPECT_GE(km.baseLatency(tiny),
              DeviceProfile::onePlus12().kernelLaunchOverhead);
}

TEST(KernelModel, BigMatmulIsComputeBound)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = matmulSpec(512, 2048, 2048);
    EXPECT_GT(km.computeTime(spec), km.memoryTime(spec));
    // ~2.1 GMACs at ~1 TFLOP effective: milliseconds scale.
    EXPECT_GT(km.baseLatency(spec), milliseconds(1));
    EXPECT_LT(km.baseLatency(spec), milliseconds(40));
}

TEST(KernelModel, TexturePathFasterThanBufferPath)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = elementalSpec(mib(16));
    spec.usesTexture = true;
    auto tex = km.baseLatency(spec);
    spec.usesTexture = false;
    auto buf = km.baseLatency(spec);
    // Romou reports texture kernels up to ~3.5x faster.
    EXPECT_GT(static_cast<double>(buf) / tex, 2.0);
    EXPECT_LT(static_cast<double>(buf) / tex, 5.0);
}

TEST(KernelModel, Figure2CurveOrdering)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto mm = matmulSpec(512, 1024, 1024);
    auto add = elementalSpec(mm.inputBytes);
    auto sm = softmaxSpec(mm.inputBytes);

    // Stream extra bytes equal to each kernel's input (ratio 1.0).
    Bytes extra = mm.inputBytes;
    double mm_rel = static_cast<double>(km.inlineLoadPenalty(mm, extra)) /
                    km.baseLatency(mm);
    double add_rel =
        static_cast<double>(km.inlineLoadPenalty(add, extra)) /
        km.baseLatency(add);
    double sm_rel = static_cast<double>(km.inlineLoadPenalty(sm, extra)) /
                    km.baseLatency(sm);

    // Figure 2: Softmax/LayerNorm steepest, Matmul shallowest.
    EXPECT_LT(mm_rel, add_rel);
    EXPECT_LT(add_rel, sm_rel);
}

TEST(KernelModel, PenaltyMonotoneInBytes)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = elementalSpec(mib(4));
    SimTime prev = 0;
    for (Bytes e = 0; e <= mib(16); e += mib(2)) {
        SimTime p = km.inlineLoadPenalty(spec, e);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(KernelModel, PipelinedRewriteReducesPenalty)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = matmulSpec(256, 512, 512);
    spec.pipelined = false;
    auto naive = km.inlineLoadPenalty(spec, mib(8));
    spec.pipelined = true;
    auto piped = km.inlineLoadPenalty(spec, mib(8));
    EXPECT_LT(piped, naive);
}

TEST(KernelModel, CapacityInversionRespectsThreshold)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = elementalSpec(mib(8));
    double limit = 3.0; // elemental: 300%
    Bytes cap = km.loadCapacityBytes(spec, limit);
    ASSERT_GT(cap, 0u);
    EXPECT_LE(km.inlineLoadPenalty(spec, cap),
              static_cast<SimTime>(limit * km.baseLatency(spec)));
    // Slightly above capacity must violate the budget (tightness).
    EXPECT_GT(km.inlineLoadPenalty(spec, cap + mib(1)),
              static_cast<SimTime>(limit * km.baseLatency(spec)));
}

TEST(KernelModel, HierarchicalZeroThresholdMeansZeroCapacity)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto spec = softmaxSpec(mib(4));
    EXPECT_EQ(km.loadCapacityBytes(spec, 0.0), 0u);
}

TEST(KernelModel, ReusableCapacityExceedsElemental)
{
    KernelModel km(DeviceProfile::onePlus12());
    auto mm = matmulSpec(512, 2048, 2048);
    auto add = elementalSpec(mib(2));
    // 20% budget on a big matmul still beats 300% on a small add:
    // Table 5, "L.C. Tolerance: Reusable High, Elemental Medium".
    EXPECT_GT(km.loadCapacityBytes(mm, 0.2),
              km.loadCapacityBytes(add, 3.0));
}

TEST(KernelSpecFor, ExtractsGraphProperties)
{
    graph::GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 128, 512});
    auto y = b.matmul(x, 1024, "fc", false);
    auto g = b.build();

    auto spec = kernelSpecFor(g, y, true);
    EXPECT_EQ(spec.kind, OpKind::MatMul);
    EXPECT_EQ(spec.macs, 128ull * 512 * 1024);
    EXPECT_EQ(spec.inputBytes, 128u * 512 * 2);
    EXPECT_EQ(spec.outputBytes, 128u * 1024 * 2);
    EXPECT_EQ(spec.weightBytes, 512u * 1024 * 2);
    EXPECT_TRUE(spec.usesTexture);
}

// --------------------------------------------------------------- devices

TEST(DeviceProfile, FourPhonesOrderedByCapability)
{
    auto op12 = DeviceProfile::onePlus12();
    auto op11 = DeviceProfile::onePlus11();
    auto p8 = DeviceProfile::pixel8();
    auto mi6 = DeviceProfile::xiaomiMi6();

    EXPECT_GT(op12.fp16Gflops, op11.fp16Gflops);
    EXPECT_GT(op11.fp16Gflops, p8.fp16Gflops);
    EXPECT_GT(p8.fp16Gflops, mi6.fp16Gflops);
    EXPECT_GT(p8.appMemoryBudget, mi6.appMemoryBudget);
    EXPECT_EQ(op12.ramBytes, gib(16));
    EXPECT_EQ(mi6.ramBytes, gib(6));
}

TEST(DeviceProfile, Figure1BandwidthHierarchy)
{
    auto dev = DeviceProfile::onePlus12();
    EXPECT_LT(dev.diskToUm.bytesPerSecond, dev.umToTm.bytesPerSecond);
    EXPECT_LT(dev.umToTm.bytesPerSecond, dev.tmToSm.bytesPerSecond);
    EXPECT_LT(dev.tmToSm.bytesPerSecond, dev.l2.bytesPerSecond);
    EXPECT_DOUBLE_EQ(dev.diskToUm.bytesPerSecond, 1.5e9);
    EXPECT_DOUBLE_EQ(dev.l2.bytesPerSecond, 560e9);
}

// ------------------------------------------------------------------ power

TEST(PowerModel, EnergyScalesWithActivity)
{
    PowerModel pm(DeviceProfile::onePlus12());
    ActivitySummary idle{seconds(1.0), 0, 0, 0};
    ActivitySummary busy{seconds(1.0), seconds(0.9), seconds(0.5),
                         gib(2)};
    EXPECT_GT(pm.energyJoules(busy), pm.energyJoules(idle));
    EXPECT_NEAR(pm.averagePowerW(idle),
                DeviceProfile::onePlus12().basePowerW, 1e-9);
    // Mobile SoC under combined load: single-digit watts.
    EXPECT_GT(pm.averagePowerW(busy), 3.0);
    EXPECT_LT(pm.averagePowerW(busy), 12.0);
}

// -------------------------------------------------------------- simulator

TEST(GpuSimulator, TimelinesShareOneClock)
{
    GpuSimulator sim(DeviceProfile::onePlus12());
    auto load = sim.disk().transfer(0, mib(150));
    auto compute = sim.computeQueue().reserve(load.end, milliseconds(5));
    EXPECT_EQ(compute.start, load.end);
    EXPECT_EQ(sim.horizon(), compute.end);
}

TEST(GpuSimulator, DiskAndComputeOverlap)
{
    GpuSimulator sim(DeviceProfile::onePlus12());
    auto load = sim.disk().transfer(0, mib(1500)); // ~1 s
    auto k = sim.computeQueue().reserve(0, milliseconds(400));
    // Independent queues: compute does not wait for the disk.
    EXPECT_LT(k.end, load.end);
    auto a = sim.activity(sim.horizon());
    EXPECT_EQ(a.computeBusy, milliseconds(400));
    EXPECT_GT(a.diskBusy, milliseconds(900));
}

// Property sweep: capacity grows with threshold for every class.
class CapacityMonotoneInThreshold
    : public ::testing::TestWithParam<double>
{
};

TEST_P(CapacityMonotoneInThreshold, AcrossClasses)
{
    KernelModel km(DeviceProfile::onePlus12());
    double limit = GetParam();
    auto mm = matmulSpec(256, 1024, 1024);
    auto add = elementalSpec(mib(4));
    EXPECT_LE(km.loadCapacityBytes(mm, limit),
              km.loadCapacityBytes(mm, limit + 0.1));
    EXPECT_LE(km.loadCapacityBytes(add, limit),
              km.loadCapacityBytes(add, limit + 0.1));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CapacityMonotoneInThreshold,
                         ::testing::Values(0.05, 0.1, 0.2, 0.5, 1.0, 2.0,
                                           3.0));

} // namespace
} // namespace flashmem::gpusim
