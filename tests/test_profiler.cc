/**
 * @file
 * Tests for the profiler: GBT regressor correctness, feature extraction,
 * and the analytic/learned load-capacity providers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "gpusim/device.hh"
#include "gpusim/kernel.hh"
#include "models/model_zoo.hh"
#include "profiler/capacity.hh"
#include "profiler/features.hh"
#include "profiler/gbt.hh"

namespace flashmem::profiler {
namespace {

using graph::OpClass;
using graph::OpKind;
using gpusim::DeviceProfile;
using gpusim::KernelModel;
using gpusim::KernelSpec;

// -------------------------------------------------------------------- GBT

TEST(Gbt, FitsLinearFunction)
{
    Rng rng(1);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 400; ++i) {
        double a = rng.uniform(0, 10), b = rng.uniform(0, 10);
        x.push_back({a, b});
        y.push_back(3.0 * a - 2.0 * b + 5.0);
    }
    GbtRegressor gbt;
    gbt.fit(x, y);
    EXPECT_GT(gbt.r2(x, y), 0.97);
    EXPECT_NEAR(gbt.predict({5.0, 5.0}), 10.0, 1.5);
}

TEST(Gbt, FitsNonlinearInteraction)
{
    Rng rng(2);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 600; ++i) {
        double a = rng.uniform(0, 4), b = rng.uniform(0, 4);
        x.push_back({a, b});
        y.push_back(a * b + std::sin(a)); // multiplicative interaction
    }
    GbtRegressor gbt;
    gbt.fit(x, y);
    EXPECT_GT(gbt.r2(x, y), 0.95);
}

/** Root-mean-square error of @p gbt over a labelled set. */
double
rmse(const GbtRegressor &gbt, const std::vector<std::vector<double>> &x,
     const std::vector<double> &y)
{
    double se = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double d = gbt.predict(x[i]) - y[i];
        se += d * d;
    }
    return std::sqrt(se / static_cast<double>(x.size()));
}

TEST(Gbt, RobustToLabelNoise)
{
    Rng rng(3);
    std::vector<std::vector<double>> x, xt;
    std::vector<double> y, yt;
    for (int i = 0; i < 500; ++i) {
        double a = rng.uniform(0, 10);
        x.push_back({a});
        y.push_back(2.0 * a + rng.gaussian(0.0, 0.5));
    }
    for (int i = 0; i < 100; ++i) {
        double a = rng.uniform(0, 10);
        xt.push_back({a});
        yt.push_back(2.0 * a);
    }
    GbtRegressor gbt;
    gbt.fit(x, y);
    EXPECT_LT(rmse(gbt, xt, yt), 1.0);
}

TEST(Gbt, PredictBeforeFitDies)
{
    GbtRegressor gbt;
    EXPECT_DEATH(gbt.predict({1.0}), "before fit");
}

TEST(Gbt, RejectsRaggedMatrix)
{
    GbtRegressor gbt;
    std::vector<std::vector<double>> x = {{1.0, 2.0}, {3.0}};
    std::vector<double> y = {1.0, 2.0};
    EXPECT_DEATH(gbt.fit(x, y), "ragged");
}

TEST(Gbt, DeterministicAcrossRuns)
{
    Rng rng(4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        double a = rng.uniform(0, 5);
        x.push_back({a, a * a});
        y.push_back(a * 3.0);
    }
    GbtRegressor g1, g2;
    g1.fit(x, y);
    g2.fit(x, y);
    for (double probe = 0.0; probe < 5.0; probe += 0.5)
        EXPECT_DOUBLE_EQ(g1.predict({probe, probe * probe}),
                         g2.predict({probe, probe * probe}));
}

TEST(Gbt, FitRejectsEmptyTrainingSets)
{
    GbtRegressor gbt;
    EXPECT_DEATH(gbt.fit({}, {}), "bad training set");
    EXPECT_DEATH(gbt.fit({{1.0}}, {1.0, 2.0}), "bad training set");
    EXPECT_DEATH(gbt.fit({{}, {}}, {1.0, 2.0}), "empty feature rows");
}

TEST(Gbt, PredictRejectsDimensionMismatch)
{
    // A silent mismatch would read whatever feature happens to sit at
    // the tree's split index — plausible garbage, not an error. The
    // regressor records the trained width and dies loudly instead.
    GbtRegressor gbt;
    gbt.fit({{1.0, 2.0}, {3.0, 4.0}}, {1.0, 2.0});
    EXPECT_EQ(gbt.featureCount(), 2u);
    EXPECT_DEATH(gbt.predict({}), "dimension mismatch");
    EXPECT_DEATH(gbt.predict({1.0}), "dimension mismatch");
    EXPECT_DEATH(gbt.predict({1.0, 2.0, 3.0}), "dimension mismatch");
}

TEST(Gbt, MetricsRejectEmptyAndRaggedEvaluationSets)
{
    GbtRegressor gbt;
    std::vector<std::vector<double>> x = {{1.0}, {2.0}};
    std::vector<double> y = {1.0, 2.0};
    gbt.fit(x, y);
    EXPECT_DEATH(gbt.r2({}, {}), "empty evaluation set");
    EXPECT_DEATH(gbt.r2(x, {1.0}), "rows vs");
}

// --------------------------------------------------------------- features

TEST(Features, AlignedWithNames)
{
    KernelSpec spec;
    spec.kind = OpKind::MatMul;
    spec.macs = 1000;
    spec.inputBytes = 2048;
    spec.outputBytes = 1024;
    auto f = kernelFeatures(spec, 0.5);
    EXPECT_EQ(f.size(), kernelFeatureNames().size());
    // One-hot class flags: matmul is reusable.
    EXPECT_DOUBLE_EQ(f[0], 0.0);
    EXPECT_DOUBLE_EQ(f[1], 1.0);
    // Extra ratio is the last feature.
    EXPECT_DOUBLE_EQ(f.back(), 0.5);
}

TEST(Features, ClassOneHotExclusive)
{
    for (auto kind : {OpKind::Add, OpKind::MatMul, OpKind::Softmax,
                      OpKind::Reshape}) {
        KernelSpec spec;
        spec.kind = kind;
        auto f = kernelFeatures(spec, 0.0);
        EXPECT_DOUBLE_EQ(f[0] + f[1] + f[2] + f[3], 1.0);
    }
}

// --------------------------------------------------------------- capacity

KernelSpec
specOf(OpKind kind, std::uint64_t macs, Bytes in, Bytes out, Bytes w)
{
    KernelSpec s;
    s.kind = kind;
    s.macs = macs;
    s.inputBytes = in;
    s.outputBytes = out;
    s.weightBytes = w;
    s.pipelined = true;
    return s;
}

TEST(AnalyticCapacity, HierarchicalGetsZero)
{
    KernelModel km(DeviceProfile::onePlus12());
    AnalyticCapacityProvider cap(km);
    auto sm = specOf(OpKind::Softmax, 1 << 20, mib(4), mib(4), 0);
    EXPECT_EQ(cap.capacityBytes(sm), 0u);
    EXPECT_EQ(cap.capacityChunks(sm, mib(1)), 0);
}

TEST(AnalyticCapacity, OrderingMatchesTable5)
{
    KernelModel km(DeviceProfile::onePlus12());
    AnalyticCapacityProvider cap(km);
    // Table 5: L.C. tolerance — Reusable High, Elemental Medium,
    // Hierarchical Low. Compare same-traffic kernels.
    auto mm = specOf(OpKind::MatMul, 1ull << 31, mib(8), mib(8), mib(16));
    auto add = specOf(OpKind::Add, 0, mib(8), mib(8), 0);
    auto sm = specOf(OpKind::Softmax, 1 << 22, mib(8), mib(8), 0);
    EXPECT_GT(cap.capacityBytes(mm), cap.capacityBytes(add));
    EXPECT_GT(cap.capacityBytes(add), cap.capacityBytes(sm));
}

TEST(AnalyticCapacity, ChunksRoundDown)
{
    KernelModel km(DeviceProfile::onePlus12());
    AnalyticCapacityProvider cap(km);
    auto add = specOf(OpKind::Add, 0, mib(8), mib(8), 0);
    Bytes bytes = cap.capacityBytes(add);
    auto chunks = cap.capacityChunks(add, mib(1));
    EXPECT_EQ(chunks, static_cast<std::int64_t>(bytes / mib(1)));
}

class LearnedCapacityFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        device_ = new DeviceProfile(DeviceProfile::onePlus12());
        model_ = new KernelModel(*device_);
        provider_ = new LearnedCapacityProvider(*model_);
        // Profile a representative mixed-operator model (paper: >10
        // models; one ViT keeps this test fast while covering all
        // operator classes).
        graph_ = new graph::Graph(
            models::buildModel(models::ModelId::ViT));
        provider_->profileAndFit({graph_});
    }

    static void
    TearDownTestSuite()
    {
        delete provider_;
        delete graph_;
        delete model_;
        delete device_;
        provider_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        device_ = nullptr;
    }

    static DeviceProfile *device_;
    static KernelModel *model_;
    static LearnedCapacityProvider *provider_;
    static graph::Graph *graph_;
};

DeviceProfile *LearnedCapacityFixture::device_ = nullptr;
KernelModel *LearnedCapacityFixture::model_ = nullptr;
LearnedCapacityProvider *LearnedCapacityFixture::provider_ = nullptr;
graph::Graph *LearnedCapacityFixture::graph_ = nullptr;

TEST_F(LearnedCapacityFixture, HoldoutAccuracyHigh)
{
    EXPECT_TRUE(provider_->trained());
    EXPECT_GT(provider_->sampleCount(), 1000u);
    EXPECT_GT(provider_->holdoutR2(), 0.90);
}

TEST_F(LearnedCapacityFixture, PredictionsTrackGroundTruth)
{
    // Compare predicted latency to the simulator on in-distribution
    // kernels at unseen ratios.
    int checked = 0;
    double rel_err_sum = 0.0;
    for (const auto &node : graph_->nodes()) {
        if (node.id % 97 != 0)
            continue;
        auto spec = gpusim::kernelSpecFor(*graph_, node.id, true);
        spec.pipelined = true;
        for (double ratio : {0.4, 1.1}) {
            auto extra = static_cast<Bytes>(
                ratio * static_cast<double>(spec.inputBytes));
            double truth =
                toMilliseconds(model_->latencyWithLoad(spec, extra));
            double pred = provider_->predictLatencyMs(spec, ratio);
            if (truth > 1e-3) {
                rel_err_sum += std::abs(pred - truth) / truth;
                ++checked;
            }
        }
    }
    ASSERT_GT(checked, 4);
    EXPECT_LT(rel_err_sum / checked, 0.35);
}

TEST_F(LearnedCapacityFixture, HierarchicalCapacityZero)
{
    auto sm = specOf(OpKind::Softmax, 1 << 20, mib(2), mib(2), 0);
    EXPECT_EQ(provider_->capacityBytes(sm), 0u);
}

TEST_F(LearnedCapacityFixture, CapacityWithinSaneBounds)
{
    for (const auto &node : graph_->nodes()) {
        if (node.id % 53 != 0)
            continue;
        auto spec = gpusim::kernelSpecFor(*graph_, node.id, true);
        spec.pipelined = true;
        Bytes cap = provider_->capacityBytes(spec);
        EXPECT_LE(cap, mib(256));
    }
}

TEST_F(LearnedCapacityFixture, ReusableKernelsDominateCapacity)
{
    // Aggregate capacity: big matmuls should contribute far more
    // schedulable load than hierarchical ops (which contribute zero).
    Bytes reusable_cap = 0, hierarchical_cap = 0;
    for (const auto &node : graph_->nodes()) {
        auto spec = gpusim::kernelSpecFor(*graph_, node.id, true);
        spec.pipelined = true;
        if (spec.cls() == OpClass::Reusable)
            reusable_cap += provider_->capacityBytes(spec);
        else if (spec.cls() == OpClass::Hierarchical)
            hierarchical_cap += provider_->capacityBytes(spec);
    }
    EXPECT_EQ(hierarchical_cap, 0u);
    EXPECT_GT(reusable_cap, mib(10));
}

TEST(CapacityThresholds, PaperDefaults)
{
    CapacityThresholds t;
    EXPECT_DOUBLE_EQ(t.forClass(OpClass::Elemental), 3.0);
    EXPECT_DOUBLE_EQ(t.forClass(OpClass::Reusable), 0.2);
    EXPECT_DOUBLE_EQ(t.forClass(OpClass::Hierarchical), 0.0);
}

} // namespace
} // namespace flashmem::profiler
