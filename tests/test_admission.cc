/**
 * @file
 * Tests for arrival-time admission (serving/admission.hh): the
 * three-tier service-estimate ladder (calibrated / GBT-predicted /
 * pessimistic), the backlog gate's verdicts on hand-built cluster
 * states, drop accounting through the fast simulator, and the
 * fast-sim-vs-EventScheduler bit-exact cross-validation with the gate
 * enabled and a cold model in the mix.
 */

#include <gtest/gtest.h>

#include "core/flashmem.hh"
#include "multidnn/scheduler.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

namespace flashmem::serving {
namespace {

using models::ModelId;
using multidnn::Admission;
using multidnn::DeadlinePolicy;
using multidnn::DeviceCluster;
using multidnn::DropReason;
using multidnn::ReadyRequest;

/** Hand-written calibration: ResNet 10 ms, ViT 40 ms; degraded plans
 * run 50% longer at half the budget. */
ServiceTable
handTable()
{
    ServiceTable table;
    table[ModelId::ResNet50] = {milliseconds(10), milliseconds(15),
                                mib(200), mib(120), mib(512),
                                mib(256)};
    table[ModelId::ViT] = {milliseconds(40), milliseconds(60),
                           mib(300), mib(180), mib(512), mib(256)};
    return table;
}

ReadyRequest
request(ModelId model, SimTime arrival, SimTime bound)
{
    ReadyRequest r;
    r.model = model;
    r.arrival = arrival;
    r.latencyBound = bound;
    return r;
}

// --------------------------------------------- the estimate ladder

TEST(Estimator, CalibratedTierPassesThrough)
{
    ServiceEstimator est(handTable());
    EXPECT_EQ(est.calibratedCount(), 2u);
    const auto &e = est.estimate(ModelId::ResNet50);
    EXPECT_EQ(e.tier, EstimateTier::Calibrated);
    EXPECT_EQ(e.service, milliseconds(10));
    EXPECT_EQ(e.degradedService, milliseconds(15));
}

TEST(Estimator, PessimisticWhenTooFewCalibratedModels)
{
    // One calibrated model cannot train a predictor (no held-out
    // residual exists); cold models get the pessimistic tier: 2x the
    // slowest calibrated service (ResNet: 10 / 15 ms).
    ServiceTable table;
    table[ModelId::ResNet50] = handTable()[ModelId::ResNet50];
    ServiceEstimator est(table);
    EXPECT_FALSE(est.predictorTrained());
    const auto &e = est.estimate(ModelId::ViT);
    EXPECT_EQ(e.tier, EstimateTier::Pessimistic);
    EXPECT_EQ(e.service, milliseconds(20));
    EXPECT_EQ(e.degradedService, milliseconds(30));
}

TEST(Estimator, EmptyTableFallsBackToFixedService)
{
    ServiceEstimator est(ServiceTable{});
    EXPECT_EQ(est.calibratedCount(), 0u);
    const auto &e = est.estimate(ModelId::ResNet50);
    EXPECT_EQ(e.tier, EstimateTier::Pessimistic);
    EXPECT_EQ(e.service, kFallbackService);
}

TEST(Estimator, PredictedTierIsInflatedAndDeterministic)
{
    ServiceEstimator a(handTable());
    ASSERT_TRUE(a.predictorTrained());
    EXPECT_GE(a.inflation(), kMinInflation);
    const auto &cold = a.estimate(ModelId::DeepViT);
    EXPECT_EQ(cold.tier, EstimateTier::Predicted);
    EXPECT_GT(cold.service, 0);
    EXPECT_GT(cold.degradedService, cold.service); // degraded is slower

    // Same inputs, second estimator: bit-identical ladder (seeded GBT,
    // no row subsampling).
    ServiceEstimator b(handTable());
    EXPECT_EQ(a.inflation(), b.inflation());
    for (const auto &spec : models::modelZoo()) {
        EXPECT_EQ(a.estimate(spec.id).service,
                  b.estimate(spec.id).service);
        EXPECT_EQ(a.estimate(spec.id).degradedService,
                  b.estimate(spec.id).degradedService);
    }
}

TEST(Estimator, PredictionTracksModelScale)
{
    // Train on four models spanning 10 ms .. 200 ms; a cold LLM far
    // bigger than everything calibrated must land near the slow end,
    // and a cold vision model near the fast end — the graph features
    // carry the size signal.
    ServiceTable table = handTable();
    table[ModelId::DepthAnythingS] = {milliseconds(20),
                                      milliseconds(30), mib(200),
                                      mib(120), mib(512), mib(256)};
    table[ModelId::GPTNeoS] = {milliseconds(200), milliseconds(300),
                               mib(400), mib(240), mib(512),
                               mib(256)};
    ServiceEstimator est(table);
    ASSERT_TRUE(est.predictorTrained());
    // The efficiency target keeps the ordering even though both cold
    // models are bigger than everything calibrated (a raw service
    // target would saturate them into one leaf).
    EXPECT_GT(est.estimate(ModelId::GPTNeo1_3B).service,
              est.estimate(ModelId::DeepViT).service);
    EXPECT_GT(est.estimate(ModelId::GPTNeo2_7B).service,
              est.estimate(ModelId::GPTNeo1_3B).service);
}

// ------------------------------------------------ the backlog gate

TEST(Controller, AdmitsUnboundedRequests)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    auto verdict = ctrl.admitAtArrival(
        0, request(ModelId::ViT, 0, /*bound=*/0), {}, cluster);
    EXPECT_EQ(verdict, Admission::Admit);
    EXPECT_EQ(ctrl.decisions().admitted, 1u);
    EXPECT_EQ(ctrl.decisions().tierCalibrated, 1u);
}

TEST(Controller, ShedsWhenDeviceHorizonBlowsDeadline)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    // Busy the lone device's compute until t = 100 ms.
    auto t = cluster.planTimes(0, 0, 0, milliseconds(100));
    cluster.commit(0, ModelId::ViT, 0, t);

    // ResNet (10 ms) due by 50 ms: projected completion 110 ms → shed.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(50)),
                  {}, cluster),
              Admission::Shed);
    // Same request due by 200 ms: 110 ms fits → admit.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(200)),
                  {}, cluster),
              Admission::Admit);
    EXPECT_EQ(ctrl.decisions().shed, 1u);
    EXPECT_EQ(ctrl.decisions().admitted, 1u);
}

TEST(Controller, QueuedWorkCountsAgainstTheDeadline)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({}); // idle
    // Five queued ViTs (40 ms each) due no later than the arriving
    // request = 200 ms of unplaced backlog ahead of it under EDF.
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(100)));

    // ResNet due by 100 ms: starts at ~200 ms → shed.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Shed);
    // Empty queue: the same request admits.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  {}, cluster),
              Admission::Admit);
    // A degraded queued request contributes its degraded estimate:
    // one degraded ViT (60 ms) + bound 100 ms still fits (70 ms).
    std::vector<ReadyRequest> degraded_ready(
        1, request(ModelId::ViT, 0, milliseconds(100)));
    degraded_ready[0].degraded = true;
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  degraded_ready, cluster),
              Admission::Admit);
}

TEST(Controller, LaterDeadlineQueueDoesNotBlockAdmission)
{
    // Under EDF only earlier-deadline work runs ahead of the arriving
    // request, so a queue full of later-deadline stragglers (the
    // normal shape of an overloaded queue) must not shed a tight
    // request that would actually jump straight to the front.
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({}); // idle
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(400)));
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
}

TEST(Controller, BacklogSpreadsAcrossLiveDevices)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    multidnn::ClusterConfig cfg;
    cfg.deviceCount = 4;
    DeviceCluster cluster(cfg);
    // 200 ms of same-deadline backlog over 4 devices = 50 ms projected
    // start; a ResNet due by 100 ms fits where the single-device case
    // shed.
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(100)));
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
    // A crashed device drops out of the projection: 200 ms / 3 ≈ 66 ms
    // start + 10 ms still fits; with three of four down (200 ms on one
    // device) it sheds.
    cluster.crash(1, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
    cluster.crash(2, 0);
    cluster.crash(3, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Shed);
}

TEST(Controller, DegradeModeDegradesInsteadOfShedding)
{
    ServiceEstimator est(handTable());
    AdmissionControllerParams params;
    params.mode = DeadlinePolicy::Overload::Degrade;
    AdmissionController ctrl(est, params);
    DeviceCluster cluster({});
    auto t = cluster.planTimes(0, 0, 0, milliseconds(100));
    cluster.commit(0, ModelId::ViT, 0, t);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(50)),
                  {}, cluster),
              Admission::Degrade);
    EXPECT_EQ(ctrl.decisions().degraded, 1u);
    EXPECT_EQ(ctrl.decisions().shed, 0u);
}

TEST(Controller, AllDownClusterAdmits)
{
    // Starvation accounting owns the dead-cluster case; the gate must
    // not shed into a momentary total outage racing the rejoins.
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    cluster.crash(0, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(1)),
                  {}, cluster),
              Admission::Admit);
}

// -------------------------------------------- cold-model influx mix

TEST(ColdInflux, ReweightsMixToTheColdFraction)
{
    ModelMix base;
    base.entries = {{ModelId::ResNet50, 3.0, milliseconds(150), 0},
                    {ModelId::ViT, 1.0, milliseconds(250), 0}};
    auto mix = withColdInflux(
        base, {{ModelId::DeepViT, 1.0, milliseconds(300), 0}}, 0.25);
    ASSERT_EQ(mix.entries.size(), 3u);
    double total = 0.0, cold = 0.0;
    for (const auto &e : mix.entries) {
        total += e.weight;
        if (e.model == ModelId::DeepViT)
            cold += e.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(cold / total, 0.25, 1e-12);
    // Base entries keep their relative weights and latency bounds.
    EXPECT_NEAR(mix.entries[0].weight / mix.entries[1].weight, 3.0,
                1e-9);
    EXPECT_EQ(mix.entries[2].latencyBound, milliseconds(300));
}

// -------------------------------- the gate inside the event loop

TEST(ArrivalGate, FastSimShedsAtArrivalWithCompleteAccounting)
{
    auto table = handTable();
    ServiceEstimator est(table);
    AdmissionController ctrl(est);

    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(30), 0},
                   {ModelId::ViT, 1.0, milliseconds(80), 0}};
    // ~3x the single-device capacity: the backlog gate must engage.
    auto trace = poissonTrace(mix, 150.0, 4000, /*seed=*/11);
    DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.arrival = &ctrl;
    auto out = simulateServing(trace, policy, table, params);

    ASSERT_GT(out.arrivalSheds, 0u);
    EXPECT_GE(out.stats.shedCount(), out.arrivalSheds);
    // Every submitted request is accounted: completed + shed.
    EXPECT_EQ(out.stats.completed() + out.stats.shedCount(),
              out.submitted);
    // The controller's own ledger covers every arrival it saw.
    EXPECT_EQ(ctrl.decisions().shed, out.arrivalSheds);
}

TEST(ArrivalGate, ImprovesGoodputUnderOverload)
{
    // 4 devices with overlap at 2x capacity: dispatch-point admission
    // checks now + service against the deadline, but the dispatched
    // run queues behind the device's compute horizon (pipeline depth),
    // so under sustained overload the dispatch point is structurally
    // optimistic by about one pipelined run — it concentrates
    // dispatches at the marginal edge and completes them late, burning
    // capacity for zero goodput. The arrival gate projects that
    // backlog and sheds the marginal requests up front. Both models
    // cost the same 10 ms (only their bounds differ), so the
    // comparison is pure timing — the gate cannot win by skewing the
    // served mix toward cheaper requests.
    ServiceTable table;
    table[ModelId::ResNet50] = {milliseconds(10), milliseconds(15),
                                mib(200), mib(120), mib(512),
                                mib(256)};
    table[ModelId::DepthAnythingS] = {milliseconds(10),
                                      milliseconds(15), mib(200),
                                      mib(120), mib(512), mib(256)};
    ServiceEstimator est(table);
    AdmissionController ctrl(est);

    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(40), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(80),
                    0}};
    auto trace = poissonTrace(mix, 800.0, 20000, /*seed=*/13);
    DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 4;
    params.cluster.overlapInitWithExec = true;

    auto baseline = simulateServing(trace, policy, table, params);
    params.arrival = &ctrl;
    auto gated = simulateServing(trace, policy, table, params);

    ASSERT_GT(gated.arrivalSheds, 0u);
    EXPECT_EQ(baseline.arrivalSheds, 0u);
    EXPECT_GT(gated.stats.goodputRate(), baseline.stats.goodputRate());
    EXPECT_LE(gated.stats.sloViolations(),
              baseline.stats.sloViolations());
}

TEST(ArrivalGate, CrossValidatesBitExactWithColdModelAtScale)
{
    // The acceptance bar: thousands of requests at 2x overload through
    // both execution paths with the arrival gate enabled AND a cold
    // model in the mix (ViT is absent from the gate's calibration view
    // and estimated by the GBT tier; execution still uses the full
    // oracle table). Counts, goodput, makespan, the full streaming-
    // percentile state, and the arrival-shed ledger must agree
    // exactly — the gate reads only state the two paths share.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ViT, 0.5, milliseconds(250), 0}};
    auto oracle = calibrateServices(fm, mix.distinctModels());

    ServiceTable view = oracle;
    view.erase(ModelId::ViT); // ViT is cold for the gate
    ServiceEstimator estimator(view);
    ASSERT_TRUE(estimator.predictorTrained());
    ASSERT_EQ(estimator.estimate(ModelId::ViT).tier,
              EstimateTier::Predicted);
    AdmissionController ctrl(estimator);

    auto trace = poissonTrace(mix, 30.0, 2500, /*seed=*/43);
    DeadlinePolicy policy;

    ServingSimParams params;
    params.readyLimit = 0;
    params.arrival = &ctrl;
    auto fast = simulateServing(trace, policy, oracle, params);
    auto fast_decisions = ctrl.decisions();
    ctrl.resetDecisions();

    multidnn::SchedulerConfig cfg;
    cfg.arrivalAdmission = &ctrl;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    std::size_t real_arrival_sheds = 0;
    for (const auto &s : real.shed)
        real_arrival_sheds += s.reason == DropReason::ArrivalShed;

    ASSERT_GT(real.runs.size(), 1000u);
    ASSERT_GT(fast.arrivalSheds, 100u); // the gate carried real load
    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real_arrival_sheds, fast.arrivalSheds);
    EXPECT_EQ(real.goodput(), fast.stats.goodput());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p95(), fast.stats.p95());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    EXPECT_DOUBLE_EQ(real_stats.meanLatencyMs(),
                     fast.stats.meanLatencyMs());
    // The controller made identical decisions on both paths.
    EXPECT_EQ(ctrl.decisions().admitted, fast_decisions.admitted);
    EXPECT_EQ(ctrl.decisions().shed, fast_decisions.shed);
    EXPECT_EQ(ctrl.decisions().tierPredicted,
              fast_decisions.tierPredicted);
    ASSERT_GT(fast_decisions.tierPredicted, 0u); // cold tier exercised
}

} // namespace
} // namespace flashmem::serving
