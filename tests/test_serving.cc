/**
 * @file
 * Tests for the serving harness: arrival-trace generators (statistical
 * shape + determinism), CSV/JSONL replay round-trips, the fast
 * request-level simulator (exact hand-checked timelines, SLO
 * admission, instability abort), capacity sweeps (monotonicity,
 * thread-count determinism), service calibration against the real
 * FlashMem planner, the fast simulator against the live
 * EventScheduler over a scenario table, and drains that must not
 * depend on the order a replayed queue lists its requests in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <tuple>

#include "common/rng.hh"
#include "core/flashmem.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

namespace flashmem::serving {
namespace {

using models::ModelId;
using multidnn::DeadlinePolicy;
using multidnn::FifoPolicy;
using multidnn::ModelRequest;
using multidnn::SjfPolicy;

ModelMix
simpleMix()
{
    ModelMix mix;
    mix.entries = {
        {ModelId::ResNet50, 3.0, 0, 0},
        {ModelId::ViT, 1.0, 0, 0},
    };
    return mix;
}

/** Hand-written service table: ResNet 10 ms, ViT 40 ms; degraded
 * plans run 50% longer at half the budget. */
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

// -------------------------------------------------------- generators

TEST(TraceGen, PoissonIsSeededAndMatchesRate)
{
    auto mix = simpleMix();
    auto a = poissonTrace(mix, /*qps=*/100.0, 20000, /*seed=*/7);
    auto b = poissonTrace(mix, 100.0, 20000, 7);
    ASSERT_EQ(a.size(), 20000u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].model, b[i].model);
    }
    // Arrivals are nondecreasing and the mean inter-arrival matches
    // 1/qps within a few percent at n=20000.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    double mean_gap_s =
        toSeconds(a.back().arrival) / static_cast<double>(a.size());
    EXPECT_NEAR(mean_gap_s, 0.01, 0.001);
    // The 3:1 mix shows up in the sampled models.
    auto resnet = static_cast<double>(std::count_if(
        a.begin(), a.end(), [](const ModelRequest &r) {
            return r.model == ModelId::ResNet50;
        }));
    EXPECT_NEAR(resnet / static_cast<double>(a.size()), 0.75, 0.02);
}

TEST(TraceGen, PoissonStampsMixBoundsAndPriorities)
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(30), 2}};
    auto t = poissonTrace(mix, 50.0, 100, 1);
    for (const auto &r : t) {
        EXPECT_EQ(r.latencyBound, milliseconds(30));
        EXPECT_EQ(r.priority, 2);
        EXPECT_EQ(r.deadline(), r.arrival + milliseconds(30));
    }
}

TEST(TraceGen, MmppIsBurstierThanPoisson)
{
    auto mix = simpleMix();
    MmppParams mm;
    mm.qpsLow = 20.0;
    mm.qpsHigh = 400.0;
    mm.meanDwell = milliseconds(200);
    auto bursty = mmppTrace(mix, mm, 20000, 11);
    auto smooth = poissonTrace(mix, 100.0, 20000, 11);
    ASSERT_EQ(bursty.size(), 20000u);
    for (std::size_t i = 1; i < bursty.size(); ++i)
        EXPECT_GE(bursty[i].arrival, bursty[i - 1].arrival);

    // Index of dispersion of counts over fixed windows: ~1 for
    // Poisson, well above for the modulated process (deterministic
    // seeds, so the margin is stable).
    auto dispersion = [](const std::vector<ModelRequest> &t,
                         SimTime window) {
        std::vector<double> counts;
        std::size_t i = 0;
        for (SimTime start = 0; start < t.back().arrival;
             start += window) {
            double c = 0;
            while (i < t.size() && t[i].arrival < start + window) {
                ++c;
                ++i;
            }
            counts.push_back(c);
        }
        RunningStat st;
        for (double c : counts)
            st.add(c);
        return st.mean() > 0 ? st.variance() / st.mean() : 0.0;
    };
    double d_bursty = dispersion(bursty, milliseconds(100));
    double d_smooth = dispersion(smooth, milliseconds(100));
    EXPECT_LT(d_smooth, 2.0);
    EXPECT_GT(d_bursty, 3.0 * d_smooth);
}

TEST(TraceGen, DiurnalModulatesTheRate)
{
    auto mix = simpleMix();
    DiurnalParams dp;
    dp.baseQps = 100.0;
    dp.amplitude = 0.8;
    dp.period = seconds(20);
    auto t = diurnalTrace(mix, dp, 20000, 13);
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GE(t[i].arrival, t[i - 1].arrival);
    // First half-period (sin > 0) sees far more arrivals than the
    // second (sin < 0).
    auto count_in = [&](SimTime lo, SimTime hi) {
        return std::count_if(t.begin(), t.end(),
                             [&](const ModelRequest &r) {
                                 return r.arrival >= lo &&
                                        r.arrival < hi;
                             });
    };
    auto up = count_in(0, seconds(10));
    auto down = count_in(seconds(10), seconds(20));
    EXPECT_GT(up, 2 * down);
}

TEST(TraceGen, ClosedLoopRespectsConcurrencyAndService)
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, 0, 0}};
    std::map<ModelId, SimTime> service{
        {ModelId::ResNet50, milliseconds(10)}};
    ClosedLoopParams cl;
    cl.users = 1;
    cl.meanThink = milliseconds(5);
    auto t = closedLoopTrace(mix, cl, service, 500, 17);
    ASSERT_EQ(t.size(), 500u);
    // A single user cannot issue faster than service completes: every
    // inter-arrival is at least the service time.
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GE(t[i].arrival - t[i - 1].arrival, milliseconds(10));

    // With K users, at most K requests can ever be in flight: the
    // arrival rate stays below K / service.
    cl.users = 4;
    cl.meanThink = 0;
    auto t4 = closedLoopTrace(mix, cl, service, 2000, 17);
    double qps = static_cast<double>(t4.size()) /
                 toSeconds(t4.back().arrival);
    EXPECT_LE(qps, 4.0 / 0.010 * 1.05);
}

// ------------------------------------------------------------ replay

TEST(TraceReplay, CsvRoundTripsExactly)
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(25), 1},
                   {ModelId::GPTNeoS, 1.0, 0, -2}};
    auto trace = poissonTrace(mix, 80.0, 200, 23);

    std::stringstream ss;
    writeCsvTrace(ss, trace);
    auto parsed = parseCsvTrace(ss);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].arrival, trace[i].arrival);
        EXPECT_EQ(parsed[i].model, trace[i].model);
        EXPECT_EQ(parsed[i].priority, trace[i].priority);
        EXPECT_EQ(parsed[i].latencyBound, trace[i].latencyBound);
    }
}

TEST(TraceReplay, JsonlRoundTripsExactly)
{
    ModelMix mix;
    mix.entries = {{ModelId::ViT, 1.0, milliseconds(50), 3}};
    auto trace = poissonTrace(mix, 40.0, 100, 29);

    std::stringstream ss;
    writeJsonlTrace(ss, trace);
    auto parsed = parseJsonlTrace(ss);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].arrival, trace[i].arrival);
        EXPECT_EQ(parsed[i].model, trace[i].model);
        EXPECT_EQ(parsed[i].priority, trace[i].priority);
        EXPECT_EQ(parsed[i].latencyBound, trace[i].latencyBound);
    }
}

TEST(TraceReplay, JsonlDefaultsOptionalFields)
{
    std::stringstream ss;
    ss << "{\"arrival_ns\": 1000, \"model\": \"ResNet50\"}\n";
    auto parsed = parseJsonlTrace(ss);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].arrival, 1000);
    EXPECT_EQ(parsed[0].model, ModelId::ResNet50);
    EXPECT_EQ(parsed[0].priority, 0);
    EXPECT_EQ(parsed[0].latencyBound, 0);
}

TEST(TraceReplay, OutOfRangePriorityFailsLoudly)
{
    auto csv = [](const std::string &priority) {
        std::stringstream ss;
        ss << "arrival_ns,model,priority,slo_ns\n1000,ResNet50,"
           << priority << ",0\n";
        return parseCsvTrace(ss);
    };
    auto jsonl = [](const std::string &priority) {
        std::stringstream ss;
        ss << "{\"arrival_ns\": 1000, \"model\": \"ResNet50\", "
           << "\"priority\": " << priority << "}\n";
        return parseJsonlTrace(ss);
    };
    // The int bounds themselves still parse.
    EXPECT_EQ(csv("2147483647")[0].priority,
              std::numeric_limits<int>::max());
    EXPECT_EQ(jsonl("-2147483648")[0].priority,
              std::numeric_limits<int>::min());
    // One past either bound would wrap through the int cast.
    EXPECT_DEATH(csv("4294967297"), "priority out of range");
    EXPECT_DEATH(csv("-4294967295"), "priority out of range");
    EXPECT_DEATH(jsonl("2147483648"), "priority out of range");
    EXPECT_DEATH(jsonl("-2147483649"), "priority out of range");
}

// ----------------------------------------------------- serving stats

TEST(ServingStats, CountsGoodputShedAndViolations)
{
    ServingStats s;
    s.recordCompletion(milliseconds(10), 0, /*met=*/true, false);
    s.recordCompletion(milliseconds(90), milliseconds(60),
                       /*met=*/false, /*degraded=*/true);
    s.recordShed();
    EXPECT_EQ(s.submitted(), 3u);
    EXPECT_EQ(s.completed(), 2u);
    EXPECT_EQ(s.shedCount(), 1u);
    EXPECT_EQ(s.degradedCount(), 1u);
    EXPECT_EQ(s.goodput(), 1u);
    EXPECT_EQ(s.sloViolations(), 1u);
    EXPECT_DOUBLE_EQ(s.goodputRate(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(s.shedRate(), 1.0 / 3.0);
    // Small-n quantiles are exact order statistics.
    EXPECT_EQ(s.p50(), milliseconds(10));
    EXPECT_EQ(s.p99(), milliseconds(90));
}

// ------------------------------------------------------ fast simulator

TEST(ServingSim, FifoTimelineIsExact)
{
    // Two ResNet requests 1 ms apart, 10 ms service: the second queues
    // 9 ms behind the first.
    std::vector<ModelRequest> trace{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, 0},
    };
    auto out = simulateServing(trace, FifoPolicy{}, handTable());
    EXPECT_FALSE(out.unstable);
    EXPECT_EQ(out.submitted, 2u);
    EXPECT_EQ(out.stats.completed(), 2u);
    EXPECT_EQ(out.makespan, milliseconds(20));
    // Latencies 10 ms and 19 ms; small-n quantiles are exact.
    EXPECT_EQ(out.stats.p50(), milliseconds(10));
    EXPECT_EQ(out.stats.p99(), milliseconds(19));
    EXPECT_EQ(out.peakMemory, mib(200));
}

TEST(ServingSim, SjfReordersByServiceTime)
{
    // ViT (40 ms) then ResNet (10 ms), both in queue when the device
    // frees: SJF runs the ResNet first once the initial ViT dispatch
    // completes.
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ViT, milliseconds(1), 0, 0},
        {ModelId::ResNet50, milliseconds(2), 0, 0},
    };
    auto fifo = simulateServing(trace, FifoPolicy{}, handTable());
    auto sjf = simulateServing(trace, SjfPolicy{}, handTable());
    EXPECT_EQ(fifo.makespan, sjf.makespan);
    // FIFO: ResNet waits 2 ViTs (ends 90 ms); SJF: ResNet ends 50 ms.
    EXPECT_EQ(fifo.stats.p99(), milliseconds(88));
    EXPECT_EQ(sjf.stats.p99(), milliseconds(89));
    EXPECT_LT(sjf.stats.meanLatencyMs(), fifo.stats.meanLatencyMs());
}

TEST(ServingSim, DeadlineShedsDoomedRequests)
{
    // A 40 ms ViT occupies the device; a ResNet with a 15 ms bound
    // arrives just after and is doomed (even dispatched immediately it
    // would finish at ~50 ms). Deadline admission sheds it; FIFO blows
    // its SLO instead.
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(15)},
    };
    auto fifo = simulateServing(trace, FifoPolicy{}, handTable());
    EXPECT_EQ(fifo.stats.completed(), 2u);
    EXPECT_EQ(fifo.stats.sloViolations(), 1u);
    EXPECT_EQ(fifo.stats.goodput(), 1u);

    auto dl = simulateServing(trace, DeadlinePolicy{}, handTable());
    EXPECT_EQ(dl.stats.completed(), 1u);
    EXPECT_EQ(dl.stats.shedCount(), 1u);
    EXPECT_EQ(dl.stats.sloViolations(), 0u);
    // Shed requests do not count toward goodput.
    EXPECT_EQ(dl.stats.goodput(), 1u);
    EXPECT_DOUBLE_EQ(dl.stats.goodputRate(), 0.5);
}

TEST(ServingSim, DeadlineAdmitsFeasibleBoundedRequests)
{
    // Bound comfortably above queue wait + service: nothing is shed.
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(80)},
    };
    auto dl = simulateServing(trace, DeadlinePolicy{}, handTable());
    EXPECT_EQ(dl.stats.completed(), 2u);
    EXPECT_EQ(dl.stats.shedCount(), 0u);
    EXPECT_EQ(dl.stats.sloViolations(), 0u);
}

TEST(ServingSim, DegradeModeRunsDoomedRequestsAtDegradedBudget)
{
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(15)},
    };
    auto out = simulateServing(
        trace, DeadlinePolicy{DeadlinePolicy::Overload::Degrade},
        handTable());
    EXPECT_EQ(out.stats.completed(), 2u);
    EXPECT_EQ(out.stats.shedCount(), 0u);
    EXPECT_EQ(out.stats.degradedCount(), 1u);
    // The degraded ResNet runs its 15 ms degraded service: completes
    // at 40 + 15 = 55 ms (latency 54 ms), violating its bound — kept,
    // not dropped.
    EXPECT_EQ(out.stats.sloViolations(), 1u);
    EXPECT_EQ(out.makespan, milliseconds(55));
}

TEST(ServingSim, EdfOrdersByDeadline)
{
    // Two bounded requests ready together; the later-arrived one has
    // the earlier absolute deadline and must run first under EDF.
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(200)},
        {ModelId::ResNet50, milliseconds(2), 0, milliseconds(60)},
    };
    auto out = simulateServing(trace, DeadlinePolicy{}, handTable());
    EXPECT_EQ(out.stats.completed(), 3u);
    EXPECT_EQ(out.stats.sloViolations(), 0u);
    // EDF: the 60 ms-bound request runs right after the ViT (ends
    // 50 ms), the 200 ms-bound one after it (ends 60 ms). Under FIFO
    // the tight one would end at 60 ms and still meet... so check the
    // makespan-invariant ordering through per-request latencies: p99
    // is the 200 ms-bound request's 59 ms latency.
    EXPECT_EQ(out.stats.p99(), milliseconds(59));
}

TEST(ServingSim, TwoDeviceTimelineIsExact)
{
    // Two ResNet requests 1 ms apart on two devices: no queueing at
    // all — the second dispatches on device 1 at its arrival.
    std::vector<ModelRequest> trace{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, 0},
    };
    ServingSimParams params;
    params.cluster.deviceCount = 2;
    auto out = simulateServing(trace, FifoPolicy{}, handTable(),
                               params);
    EXPECT_EQ(out.stats.completed(), 2u);
    EXPECT_EQ(out.makespan, milliseconds(11));
    // Latencies are both the bare 10 ms service.
    EXPECT_EQ(out.stats.p50(), milliseconds(10));
    EXPECT_EQ(out.stats.p99(), milliseconds(10));
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].dispatched, 1u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
    EXPECT_EQ(out.devices[0].peakMemory, mib(200));
}

/** Hand table with a nonzero init phase: ResNet 10 ms service of
 * which 4 ms is preload DMA; ViT 40 ms of which 10 ms is preload. */
ServiceTable
overlapTable()
{
    auto table = handTable();
    table[ModelId::ResNet50].initService = milliseconds(4);
    table[ModelId::ResNet50].degradedInitService = milliseconds(4);
    table[ModelId::ViT].initService = milliseconds(10);
    table[ModelId::ViT].degradedInitService = milliseconds(10);
    return table;
}

TEST(ServingSim, OverlapTimelineIsExact)
{
    // Three back-to-back ResNets (10 ms service, 4 ms init) on one
    // device with cross-request overlap:
    //   r0: preload [0,4), compute [4,10)
    //   r1: preload [4,8) (DMA queue frees), compute [10,16)
    //   r2: dispatched at r0's completion (pipeline depth 2),
    //       preload [10,14), compute [16,22).
    std::vector<ModelRequest> trace{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, 0, 0, 0},
    };
    auto serial = simulateServing(trace, FifoPolicy{},
                                  overlapTable());
    EXPECT_EQ(serial.makespan, milliseconds(30));

    ServingSimParams params;
    params.cluster.overlapInitWithExec = true;
    auto out = simulateServing(trace, FifoPolicy{}, overlapTable(),
                               params);
    EXPECT_EQ(out.stats.completed(), 3u);
    EXPECT_EQ(out.makespan, milliseconds(22));
    // Latencies 10 / 16 / 22 ms (arrivals at 0).
    EXPECT_EQ(out.stats.p50(), milliseconds(16));
    EXPECT_EQ(out.stats.p99(), milliseconds(22));
    // The DMA queue carried all three 4 ms preloads.
    ASSERT_EQ(out.devices.size(), 1u);
    EXPECT_EQ(out.devices[0].dmaBusyTime, milliseconds(12));
    EXPECT_EQ(out.devices[0].computeBusyTime, milliseconds(18));
}

TEST(ServingSim, OverloadAbortsAsUnstable)
{
    // 10x capacity with a tiny ready limit: the backlog explodes and
    // the run aborts as unstable.
    ModelMix mix;
    mix.entries = {{ModelId::ViT, 1.0, 0, 0}};
    auto trace = poissonTrace(mix, 250.0, 5000, 3);
    ServingSimParams params;
    params.readyLimit = 64;
    auto out = simulateServing(trace, FifoPolicy{}, handTable(),
                               params);
    EXPECT_TRUE(out.unstable);
    EXPECT_LT(out.stats.completed(), trace.size());
}

TEST(ServingSim, FromOutcomeMatchesOutcomeAccounting)
{
    std::vector<ModelRequest> trace{
        {ModelId::ViT, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(15)},
    };
    auto out = simulateServing(trace, DeadlinePolicy{}, handTable());
    multidnn::ScheduleOutcome sched;
    core::RunResult r;
    r.arrival = 0;
    r.start = 0;
    r.end = milliseconds(40);
    sched.runs.push_back(r);
    sched.shed.push_back({1, ModelId::ResNet50, milliseconds(1),
                          milliseconds(15), milliseconds(40)});
    auto stats = ServingStats::fromOutcome(sched);
    EXPECT_EQ(stats.completed(), out.stats.completed());
    EXPECT_EQ(stats.shedCount(), out.stats.shedCount());
    EXPECT_EQ(stats.goodput(), out.stats.goodput());
    EXPECT_EQ(stats.p99(), out.stats.p99());
}

// ----------------------------------------------------------- sweeps

TEST(Sweep, FindsTheCapacityKnee)
{
    // Single 10 ms model: capacity is 100 QPS. The knee must land
    // well below 100 (queueing inflates p99 near saturation) but
    // above a trivial floor.
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(100), 0}};
    SweepParams sp;
    sp.loQps = 2.0;
    sp.hiQps = 512.0;
    sp.requestsPerProbe = 20000;
    sp.seed = 5;
    sp.slo.p99Bound = milliseconds(100);
    sp.slo.minGoodput = 0.95;
    auto res = findMaxSustainableQps(mix, FifoPolicy{}, handTable(),
                                     sp);
    EXPECT_GT(res.maxSustainableQps, 10.0);
    EXPECT_LT(res.maxSustainableQps, 100.0);
    EXPECT_GE(res.probes.size(), 3u);

    // A model twice as slow sustains strictly less.
    ServiceTable slow = handTable();
    slow[ModelId::ResNet50].service = milliseconds(20);
    auto res_slow = findMaxSustainableQps(mix, FifoPolicy{}, slow,
                                          sp);
    EXPECT_LT(res_slow.maxSustainableQps, res.maxSustainableQps);
}

TEST(Sweep, ThreadPoolDoesNotChangeTheResult)
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(80), 0},
                   {ModelId::ViT, 1.0, milliseconds(250), 0}};
    SweepParams sp;
    sp.loQps = 2.0;
    sp.hiQps = 256.0;
    sp.requestsPerProbe = 10000;
    sp.seed = 9;
    sp.slo.p99Bound = milliseconds(250);
    auto serial = findMaxSustainableQps(
        mix, DeadlinePolicy{}, handTable(), sp, nullptr);
    ThreadPool pool(4);
    auto parallel = findMaxSustainableQps(
        mix, DeadlinePolicy{}, handTable(), sp, &pool);
    EXPECT_EQ(serial.maxSustainableQps, parallel.maxSustainableQps);
    ASSERT_EQ(serial.probes.size(), parallel.probes.size());
    for (std::size_t i = 0; i < serial.probes.size(); ++i) {
        EXPECT_EQ(serial.probes[i].qps, parallel.probes[i].qps);
        EXPECT_EQ(serial.probes[i].sustainable,
                  parallel.probes[i].sustainable);
        EXPECT_EQ(serial.probes[i].p99Ms, parallel.probes[i].p99Ms);
    }
}

TEST(Sweep, HopelessSloYieldsZero)
{
    // A bound below the bare service time can never be met.
    ModelMix mix;
    mix.entries = {{ModelId::ViT, 1.0, milliseconds(5), 0}};
    SweepParams sp;
    sp.loQps = 1.0;
    sp.hiQps = 64.0;
    sp.requestsPerProbe = 2000;
    sp.slo.p99Bound = milliseconds(5);
    auto res = findMaxSustainableQps(mix, FifoPolicy{}, handTable(),
                                     sp);
    EXPECT_EQ(res.maxSustainableQps, 0.0);
}

// ------------------------------------------------------- calibration

TEST(Calibration, MeasuresRealPlansAtBothBudgets)
{
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    auto table = calibrateServices(fm, {ModelId::ResNet50},
                                   /*degrade_budget_fraction=*/0.25);
    ASSERT_EQ(table.size(), 1u);
    const auto &p = table.at(ModelId::ResNet50);
    EXPECT_GT(p.service, 0);
    EXPECT_GT(p.degradedService, 0);
    EXPECT_GT(p.peakBytes, 0u);
    EXPECT_LT(p.degradedPlanBudget, p.planBudget);
    // The degraded plan was solved under a quarter of the budget,
    // quantized/clamped exactly as the EventScheduler's degraded
    // dispatch would be (shared quantizeBudgetShare rule).
    EXPECT_EQ(p.degradedPlanBudget,
              multidnn::quantizeBudgetShare(
                  fm.options().opg.mPeak / 4,
                  multidnn::SchedulerConfig{},
                  fm.options().opg.chunkBytes,
                  fm.options().opg.mPeak));
    // Cross-check the full-budget service against a direct run.
    auto g = models::buildModel(ModelId::ResNet50);
    auto compiled = fm.compile(g);
    gpusim::GpuSimulator sim(fm.device());
    auto r = fm.execute(sim, compiled, 0);
    EXPECT_EQ(p.service, r.integratedLatency());
}

// ------------------------------------------------- fault tolerance

TEST(FaultServing, RetryAfterFailoverStillMeetsBoundAndCountsGoodput)
{
    // A request that fails once but can still make its deadline after
    // the failover completes within bound and counts toward goodput.
    std::vector<ModelRequest> trace{
        {ModelId::ResNet50, 0, 0, milliseconds(100)}};
    ServingSimParams params;
    params.cluster.deviceCount = 2;
    params.faults = multidnn::singleCrash(0, milliseconds(2));
    auto out =
        simulateServing(trace, DeadlinePolicy{}, handTable(), params);

    EXPECT_EQ(out.stats.completed(), 1u);
    EXPECT_EQ(out.stats.shedCount(), 0u);
    EXPECT_EQ(out.stats.goodput(), 1u);
    EXPECT_EQ(out.faults.crashes, 1);
    EXPECT_EQ(out.faults.retries, 1);
    EXPECT_EQ(out.faults.failovers, 1);
    // Killed at 2 ms, backed off 1 ms, re-served in 10 ms on the
    // surviving device: 13 ms total, within the 100 ms bound.
    EXPECT_EQ(out.makespan, milliseconds(13));
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
}

TEST(FaultServing, DoomedRetryIsShedNotRetriedForever)
{
    // Feasible at arrival (10 ms service vs 12 ms bound), but the
    // crash burns the slack: the retry re-enters admission, which
    // sheds it instead of bouncing it between dead dispatches.
    std::vector<ModelRequest> trace{
        {ModelId::ResNet50, 0, 0, milliseconds(12)}};
    ServingSimParams params;
    params.cluster.deviceCount = 2;
    params.faults = multidnn::singleCrash(0, milliseconds(2));
    auto out =
        simulateServing(trace, DeadlinePolicy{}, handTable(), params);

    EXPECT_EQ(out.stats.completed(), 0u);
    EXPECT_EQ(out.stats.shedCount(), 1u);
    EXPECT_EQ(out.faults.retries, 1);    // one re-dispatch attempt
    EXPECT_EQ(out.faults.faultSheds, 0); // admission shed it, not the
                                         // retry budget
    EXPECT_EQ(out.stats.goodput(), 0u);
}

TEST(FaultServing, FaultCountersRideTheOutcome)
{
    // A slowdown window stretches every dispatch inside it; the run
    // still completes (no retries) and the outcome says so.
    std::vector<ModelRequest> trace{{ModelId::ResNet50, 0, 0, 0}};
    ServingSimParams params;
    params.faults = multidnn::singleSlowdown(0, 0, milliseconds(100),
                                             /*factor=*/3.0);
    auto out =
        simulateServing(trace, FifoPolicy{}, handTable(), params);
    EXPECT_EQ(out.stats.completed(), 1u);
    EXPECT_EQ(out.makespan, milliseconds(30)); // 10 ms x 3
    EXPECT_EQ(out.faults.retries, 0);
    EXPECT_EQ(out.faults.crashes, 0);
}

TEST(FaultServing, FaultOnAMissingDeviceFailsLoudly)
{
    // A fault plan built for a larger cluster names a device this one
    // does not have: the drain refuses it up front instead of
    // indexing past the cluster's devices.
    std::vector<ModelRequest> trace{{ModelId::ResNet50, 0, 0, 0}};
    ServingSimParams params;
    params.faults = multidnn::singleCrash(3, milliseconds(2));
    EXPECT_DEATH(
        simulateServing(trace, FifoPolicy{}, handTable(), params),
        "fault event 0 targets device 3 of a 1-device cluster");
}

// ------------------------------------------------------ queue order

/** @p sorted listed in a seeded random order, written as CSV and read
 * back through loadTrace. @p to_sorted receives, for each index of the
 * returned queue, the request's index in @p sorted. */
std::vector<ModelRequest>
shuffledReplay(const std::vector<ModelRequest> &sorted,
               std::uint64_t seed, const std::string &name,
               std::vector<std::size_t> &to_sorted)
{
    to_sorted.resize(sorted.size());
    std::iota(to_sorted.begin(), to_sorted.end(), std::size_t{0});
    Rng rng(seed);
    for (std::size_t j = to_sorted.size(); j > 1; --j)
        std::swap(to_sorted[j - 1],
                  to_sorted[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(j - 1)))]);
    std::vector<ModelRequest> shuffled;
    for (std::size_t k : to_sorted)
        shuffled.push_back(sorted[k]);

    std::string path = testing::TempDir() + name + ".csv";
    {
        std::ofstream out(path);
        writeCsvTrace(out, shuffled);
    }
    auto replayed = loadTrace(path);
    std::remove(path.c_str());
    return replayed;
}

/** What one drain did, with every queue index mapped to the request's
 * index in the sorted trace. */
struct Observed
{
    std::size_t completed = 0;
    std::size_t goodput = 0;
    /** (sorted index, drop time, reason) per dropped request, in drop
     * order. */
    std::vector<std::tuple<std::size_t, SimTime, int>> sheds;
    SimTime p50 = 0, p95 = 0, p99 = 0, makespan = 0;
    double meanLatencyMs = 0.0;
    multidnn::FaultCounters faults;
    /** Per device: dispatches, busy time per resource, downtime. */
    std::vector<std::size_t> dispatched;
    std::vector<SimTime> computeBusy, dmaBusy, downTime;
};

/** The fields both outcomes share. */
Observed
observeCommon(const ServingStats &stats, SimTime makespan,
              const multidnn::FaultCounters &faults,
              const std::vector<multidnn::DeviceUtilization> &devices)
{
    Observed v;
    v.completed = stats.completed();
    v.goodput = stats.goodput();
    v.p50 = stats.p50();
    v.p95 = stats.p95();
    v.p99 = stats.p99();
    v.makespan = makespan;
    v.meanLatencyMs = stats.meanLatencyMs();
    v.faults = faults;
    for (const auto &d : devices) {
        v.dispatched.push_back(d.dispatched);
        v.computeBusy.push_back(d.computeBusyTime);
        v.dmaBusy.push_back(d.dmaBusyTime);
        v.downTime.push_back(d.downTime);
    }
    return v;
}

Observed
observe(const ServingOutcome &o, const obs::TraceRecorder &rec,
        const std::vector<std::size_t> &to_sorted)
{
    Observed v = observeCommon(o.stats, o.makespan, o.faults, o.devices);
    for (const auto &e : rec.events()) {
        if (e.kind == obs::EventKind::RequestShed)
            v.sheds.emplace_back(to_sorted[e.id], e.time,
                                 static_cast<int>(e.a));
    }
    return v;
}

Observed
observe(const multidnn::ScheduleOutcome &o,
        const std::vector<std::size_t> &to_sorted)
{
    Observed v = observeCommon(ServingStats::fromOutcome(o), o.makespan,
                               o.faults, o.devices);
    for (const auto &d : o.shed)
        v.sheds.emplace_back(to_sorted[d.queueIndex], d.shedAt,
                             static_cast<int>(d.reason));
    return v;
}

void
expectSameDrain(const Observed &a, const Observed &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.sheds, b.sheds);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
    EXPECT_EQ(a.faults.crashes, b.faults.crashes);
    EXPECT_EQ(a.faults.timeouts, b.faults.timeouts);
    EXPECT_EQ(a.faults.dmaAborts, b.faults.dmaAborts);
    EXPECT_EQ(a.faults.retries, b.faults.retries);
    EXPECT_EQ(a.faults.failovers, b.faults.failovers);
    EXPECT_EQ(a.faults.faultSheds, b.faults.faultSheds);
    EXPECT_EQ(a.faults.starved, b.faults.starved);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.computeBusy, b.computeBusy);
    EXPECT_EQ(a.dmaBusy, b.dmaBusy);
    EXPECT_EQ(a.downTime, b.downTime);
}

TEST(QueueOrder, ShuffledReplayDrainsLikeTheSortedTrace)
{
    // The loop streams arrivals in (arrival, queue index) order, so a
    // replayed file that lists the same requests in another order
    // must drain to the same outcome, request for request, on both
    // execution paths: same sheds at the same instants for the same
    // reasons, same latency order, same fault accounting.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ResNet50, 1.0, 0, 0}};
    auto services = calibrateServices(fm, mix.distinctModels());
    ServiceEstimator estimator(services);
    AdmissionController gate(estimator);

    multidnn::FaultPlanParams fp;
    fp.stallsPerSecond = 0.5;
    fp.meanStall = milliseconds(40);
    fp.dmaErrorsPerSecond = 1.0;
    auto plan = multidnn::mergeFaultPlans(
        multidnn::crashAndRejoin(0, milliseconds(500),
                                 milliseconds(400)),
        multidnn::generateFaultPlan(fp, 2, seconds(60), 7));

    multidnn::DeadlinePolicy policy;
    auto drainFast = [&](const std::vector<ModelRequest> &queue,
                         const std::vector<std::size_t> &to_sorted) {
        obs::TraceRecorder rec;
        ServingSimParams params;
        params.readyLimit = 0;
        params.cluster.deviceCount = 2;
        params.cluster.overlapInitWithExec = true;
        params.faults = plan;
        params.arrival = &gate;
        params.trace = &rec;
        auto out = simulateServing(queue, policy, services, params);
        return observe(out, rec, to_sorted);
    };
    auto drainReal = [&](const std::vector<ModelRequest> &queue,
                         const std::vector<std::size_t> &to_sorted) {
        multidnn::SchedulerConfig cfg;
        cfg.cluster.deviceCount = 2;
        cfg.cluster.overlapInitWithExec = true;
        cfg.faults = plan;
        cfg.arrivalAdmission = &gate;
        multidnn::EventScheduler sched(fm, cfg);
        return observe(sched.run(queue, policy), to_sorted);
    };

    auto expectOrderFree = [&](std::size_t requests, auto &&drain) {
        SCOPED_TRACE(requests);
        auto sorted = poissonTrace(mix, 60.0, requests, /*seed=*/67);
        // Distinct instants: no arrival tie whose order the queue
        // index decides (the tie case is the next test).
        for (std::size_t i = 1; i < sorted.size(); ++i)
            ASSERT_LT(sorted[i - 1].arrival, sorted[i].arrival);
        std::vector<std::size_t> to_sorted;
        auto replayed = shuffledReplay(
            sorted, 71, "queue_order_" + std::to_string(requests),
            to_sorted);
        ASSERT_EQ(replayed.size(), sorted.size());
        ASSERT_FALSE(std::is_sorted(
            replayed.begin(), replayed.end(),
            [](const ModelRequest &a, const ModelRequest &b) {
                return a.arrival < b.arrival;
            }));
        std::vector<std::size_t> identity(sorted.size());
        std::iota(identity.begin(), identity.end(), std::size_t{0});

        auto a = drain(sorted, identity);
        auto b = drain(replayed, to_sorted);
        // The run exercised what order could disturb: arrival and
        // dispatch sheds, crashes and retries.
        ASSERT_GT(a.completed, requests / 2);
        ASSERT_TRUE(std::any_of(
            a.sheds.begin(), a.sheds.end(), [](const auto &d) {
                return std::get<2>(d) ==
                       static_cast<int>(
                           multidnn::DropReason::ArrivalShed);
            }));
        ASSERT_GT(a.faults.crashes, 0);
        ASSERT_GT(a.faults.retries, 0);
        expectSameDrain(a, b);
    };
    expectOrderFree(3000, drainFast);
    // The real scheduler executes every dispatch: a shorter trace.
    expectOrderFree(300, drainReal);
}

TEST(QueueOrder, SameInstantArrivalsEnterInQueueIndexOrder)
{
    // A queue listed latest-first, so the loop must sort it, in which
    // requests 1 and 2 arrive at the same instant: they reach the
    // arrival gate in queue-index order.
    std::vector<ModelRequest> queue{
        {ModelId::ViT, milliseconds(3), 0, milliseconds(100)},
        {ModelId::ViT, milliseconds(2), 0, milliseconds(100)},
        {ModelId::ResNet50, milliseconds(2), 0, milliseconds(100)},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(100)}};
    ServiceEstimator estimator(handTable());
    AdmissionController gate(estimator);
    obs::TraceRecorder rec;
    ServingSimParams params;
    params.arrival = &gate;
    params.trace = &rec;
    auto out = simulateServing(queue, DeadlinePolicy{}, handTable(),
                               params);
    EXPECT_EQ(out.stats.completed(), queue.size());

    std::vector<std::uint32_t> verdicts;
    for (const auto &e : rec.events()) {
        if (e.kind == obs::EventKind::AdmissionVerdict)
            verdicts.push_back(e.id);
    }
    EXPECT_EQ(verdicts, (std::vector<std::uint32_t>{3, 1, 2, 0}));
}

// ------------------------------------- fast sim vs live scheduler

/** One drain both execution paths run, with what it must exercise. */
struct CrossScenario
{
    const char *name = "";
    std::vector<ModelMix::Entry> mix;
    double qps = 0.0;
    std::size_t requests = 0;
    std::uint64_t seed = 0;
    multidnn::PolicyKind policy = multidnn::PolicyKind::Fifo;
    int devices = 1;
    bool overlap = false;
    /** Inject a mixed crash/slowdown/stall/DMA-error schedule. */
    bool faults = false;
    /** The fast path's backlog bound (the live path never aborts). */
    std::size_t readyLimit = 0;
    /** Preconditions on the live drain. @{ */
    std::size_t minCompleted = 1;
    std::size_t minSheds = 0;
    /** @} */
};

void
PrintTo(const CrossScenario &s, std::ostream *os)
{
    *os << s.name;
}

const std::vector<ModelMix::Entry> kBoundedMix = {
    {ModelId::ResNet50, 2.0, milliseconds(150), 0},
    {ModelId::DepthAnythingS, 1.0, milliseconds(400), 0}};

std::vector<CrossScenario>
crossScenarios()
{
    using multidnn::PolicyKind;
    auto faulty_mix = kBoundedMix;
    faulty_mix.push_back({ModelId::ResNet50, 1.0, 0, 0});
    return {
        // ~2x the mix capacity: queues build and admission sheds.
        {.name = "Contention", .mix = kBoundedMix, .qps = 30.0,
         .requests = 30, .seed = 41, .policy = PolicyKind::Deadline,
         .readyLimit = 4096, .minSheds = 1},
        // Thousands of requests, so rare divergence cannot hide; the
        // P² quantiles depend on observation order, so equal
        // percentiles mean equal latencies in equal order.
        {.name = "AtScale", .mix = kBoundedMix, .qps = 30.0,
         .requests = 2500, .seed = 43, .policy = PolicyKind::Deadline,
         .minCompleted = 1001, .minSheds = 101},
        {.name = "Sharded", .mix = kBoundedMix, .qps = 60.0,
         .requests = 600, .seed = 47, .policy = PolicyKind::Deadline,
         .devices = 2, .minSheds = 1},
        {.name = "Overlap",
         .mix = {{ModelId::GPTNeoS, 1.0, 0, 0},
                 {ModelId::ResNet50, 1.0, 0, 0}},
         .qps = 12.0, .requests = 40, .seed = 53, .overlap = true},
        // Bounded requests exercise retry re-admission (a doomed retry
        // is shed); the unbounded share guarantees failovers.
        {.name = "Faults", .mix = faulty_mix, .qps = 60.0,
         .requests = 2500, .seed = 61, .policy = PolicyKind::Deadline,
         .devices = 2, .overlap = true, .faults = true,
         .minCompleted = 1001},
    };
}

class CrossValidation : public testing::TestWithParam<CrossScenario>
{};

TEST_P(CrossValidation, FastSimMatchesEventScheduler)
{
    // Both paths drain the trace through the one event loop and differ
    // only in where a run's service times come from: the calibrated
    // table, or the live scheduler's compiled profiles on the FlashMem
    // the table was calibrated on. Every observable must agree:
    // completions, goodput, every shed (request, instant, reason), the
    // latency quantiles and mean, makespan, all fault counters, and
    // per-device dispatches, busy times and downtime.
    const auto &row = GetParam();
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = row.mix;
    auto services = calibrateServices(fm, mix.distinctModels());
    auto trace = poissonTrace(mix, row.qps, row.requests, row.seed);
    auto policy = multidnn::makePolicy(row.policy);

    multidnn::FaultPlan plan;
    if (row.faults) {
        // A mid-run crash with rejoin, a thermal slowdown, a
        // watchdog-tripping stall, and a seeded background of stalls
        // and transient DMA errors on both devices.
        multidnn::FaultPlanParams fp;
        fp.stallsPerSecond = 0.5;
        fp.meanStall = milliseconds(40);
        fp.dmaErrorsPerSecond = 1.0;
        plan = multidnn::crashAndRejoin(0, milliseconds(500),
                                        milliseconds(400));
        plan = multidnn::mergeFaultPlans(
            plan, multidnn::singleSlowdown(1, milliseconds(200),
                                           milliseconds(600), 3.0));
        plan = multidnn::mergeFaultPlans(
            plan, multidnn::singleStall(1, seconds(2), seconds(3)));
        plan = multidnn::mergeFaultPlans(
            plan, multidnn::generateFaultPlan(fp, 2, seconds(30), 7));
    }

    obs::TraceRecorder rec;
    ServingSimParams params;
    params.readyLimit = row.readyLimit;
    params.cluster.deviceCount = row.devices;
    params.cluster.overlapInitWithExec = row.overlap;
    params.faults = plan;
    params.trace = &rec;
    auto fast = simulateServing(trace, *policy, services, params);

    multidnn::SchedulerConfig cfg;
    cfg.cluster = params.cluster;
    cfg.faults = plan;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, *policy);

    std::vector<std::size_t> identity(trace.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    auto live = observe(real, identity);

    // The drain exercised what its row is about.
    ASSERT_GE(live.completed, row.minCompleted);
    ASSERT_GE(live.sheds.size(), row.minSheds);
    for (auto n : live.dispatched)
        ASSERT_GT(n, 0u);
    if (row.overlap) {
        ASSERT_TRUE(std::any_of(
            services.begin(), services.end(),
            [](const auto &e) { return e.second.initService > 0; }));
        // Some run's preload started before its predecessor's end.
        bool overlapped = false;
        for (std::size_t i = 1; i < real.runs.size(); ++i)
            overlapped |= real.runs[i].start < real.runs[i - 1].end;
        ASSERT_TRUE(overlapped);
    }
    if (row.faults) {
        ASSERT_GT(live.faults.crashes, 0);
        ASSERT_GT(live.faults.retries, 0);
        ASSERT_GT(live.faults.failovers, 0);
    }
    expectSameDrain(observe(fast, rec, identity), live);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, CrossValidation, testing::ValuesIn(crossScenarios()),
    [](const testing::TestParamInfo<CrossScenario> &info) {
        return std::string(info.param.name);
    });

TEST(Sweep, DeviceCountsScaleThroughput)
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(100), 0}};
    SweepParams sp;
    sp.loQps = 2.0;
    sp.hiQps = 256.0;
    sp.requestsPerProbe = 20000;
    sp.seed = 5;
    sp.slo.p99Bound = milliseconds(100);
    auto points = sweepDeviceCounts(mix, FifoPolicy{}, overlapTable(),
                                    sp, {1, 2, 4});
    ASSERT_EQ(points.size(), 6u); // 3 counts x overlap off/on

    auto qps_at = [&](int devices, bool overlap) {
        for (const auto &p : points) {
            if (p.devices == devices && p.overlap == overlap)
                return p.sweep.maxSustainableQps;
        }
        return -1.0;
    };
    // Monotone in devices, and sharding beats proportional scaling
    // of the knee (pooling smooths the tail).
    for (bool overlap : {false, true}) {
        EXPECT_GT(qps_at(2, overlap), 1.5 * qps_at(1, overlap));
        EXPECT_GT(qps_at(4, overlap), 1.5 * qps_at(2, overlap));
    }
    // A nonzero init phase makes overlap strictly help.
    EXPECT_GT(qps_at(1, true), qps_at(1, false));
}

TEST(Sweep, ZeroInitMakesOverlapANoOp)
{
    // With no preload phase (initService == 0) the overlap model
    // degenerates to the serialized device: identical figures, off
    // or on.
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(100), 0}};
    auto trace = poissonTrace(mix, 40.0, 5000, 13);
    ServingSimParams off;
    ServingSimParams on;
    on.cluster.overlapInitWithExec = true;
    auto a = simulateServing(trace, FifoPolicy{}, handTable(), off);
    auto b = simulateServing(trace, FifoPolicy{}, handTable(), on);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.stats.p99(), b.stats.p99());
    EXPECT_EQ(a.stats.completed(), b.stats.completed());
}

TEST(Calibration, SloHelpersStampBounds)
{
    auto table = handTable();
    std::vector<std::pair<ModelId, double>> w{
        {ModelId::ResNet50, 3.0}, {ModelId::ViT, 1.0}};
    // 0.75 * 10ms + 0.25 * 40ms = 17.5 ms.
    EXPECT_EQ(meanService(table, w),
              static_cast<SimTime>(milliseconds(17.5)));
}

} // namespace
} // namespace flashmem::serving
