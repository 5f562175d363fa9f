/**
 * @file
 * Tests for the serving harness: arrival-trace generators (statistical
 * shape + determinism), CSV/JSONL replay round-trips, the fast
 * request-level simulator (exact hand-checked timelines, SLO
 * admission, instability abort), capacity sweeps (monotonicity,
 * thread-count determinism), and service calibration against the real
 * FlashMem planner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/flashmem.hh"
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

    // The estimates view feeds the closed-loop generator.
    auto est = serviceEstimates(table);
    EXPECT_EQ(est.at(ModelId::ResNet50), p.service);
}

TEST(Calibration, FastSimulatorCrossValidatesAgainstEventScheduler)
{
    // The fast request-level simulator claims to mirror the real
    // EventScheduler's event loop exactly; hold it to that. Same
    // generated trace, same policy, services calibrated from the same
    // FlashMem: dispatch count, shed count, goodput, and every
    // per-request (start, end) must agree — the real scheduler's
    // executions are start-time invariant, so calibrated service
    // times reproduce its timeline.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0}};
    auto services = calibrateServices(fm, mix.distinctModels());

    // ~2x the mix capacity, so queues build and admission sheds.
    auto trace = poissonTrace(mix, 30.0, 30, /*seed=*/41);
    multidnn::DeadlinePolicy policy;
    auto fast = simulateServing(trace, policy, services);

    multidnn::EventScheduler sched(fm);
    auto real = sched.run(trace, policy);

    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real.goodput(), fast.stats.goodput());
    EXPECT_EQ(real.makespan, fast.makespan);
    ASSERT_FALSE(real.runs.empty());
    ASSERT_GT(fast.stats.shedCount(), 0u); // contention exercised
}

TEST(Calibration, FastSimulatorCrossValidatesAtScale)
{
    // The tens-of-requests cross-validation above could hide rare
    // divergence; drive thousands of requests through both paths at
    // 2x overload and hold them to *exact* agreement — counts,
    // makespan, goodput, and the full streaming-percentile state
    // (the P² estimators are pure functions of the observation
    // order, so matching p50/p95/p99 bit for bit means the two
    // paths produced identical per-request latencies in identical
    // order).
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0}};
    auto services = calibrateServices(fm, mix.distinctModels());

    auto trace = poissonTrace(mix, 30.0, 2500, /*seed=*/43);
    multidnn::DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0; // the real path never aborts
    auto fast = simulateServing(trace, policy, services, params);

    multidnn::EventScheduler sched(fm);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    ASSERT_GT(real.runs.size(), 1000u);
    ASSERT_GT(real.shed.size(), 100u); // overload exercised
    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real.goodput(), fast.stats.goodput());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p95(), fast.stats.p95());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    EXPECT_DOUBLE_EQ(real_stats.meanLatencyMs(),
                     fast.stats.meanLatencyMs());
}

TEST(Calibration, ShardedFastSimCrossValidatesAgainstEventScheduler)
{
    // The N-device loop must mirror exactly too: same trace, same
    // policy, two devices, overload. Placement, admission, and
    // per-request timelines all agree because both paths run the
    // shared cluster event loop over the same calibrated times.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0}};
    auto services = calibrateServices(fm, mix.distinctModels());

    auto trace = poissonTrace(mix, 60.0, 600, /*seed=*/47);
    multidnn::DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 2;
    auto fast = simulateServing(trace, policy, services, params);

    multidnn::SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    ASSERT_GT(fast.stats.shedCount(), 0u);
    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p95(), fast.stats.p95());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    // Both devices did work, and the paths agree per device.
    ASSERT_EQ(real.devices.size(), 2u);
    ASSERT_EQ(fast.devices.size(), 2u);
    for (int d = 0; d < 2; ++d) {
        EXPECT_GT(real.devices[d].dispatched, 0u);
        EXPECT_EQ(real.devices[d].dispatched,
                  fast.devices[d].dispatched);
        EXPECT_EQ(real.devices[d].computeBusyTime,
                  fast.devices[d].computeBusyTime);
        EXPECT_EQ(real.devices[d].dmaBusyTime,
                  fast.devices[d].dmaBusyTime);
    }
}

TEST(Calibration, OverlapCrossValidatesAgainstEventScheduler)
{
    // Cross-request overlap: the real scheduler places runs with its
    // measured solo profiles, the fast path with the calibrated
    // table — both through DeviceCluster::planTimes. Solo executions
    // are deterministic, so the two must agree exactly.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::GPTNeoS, 1.0, 0, 0},
                   {ModelId::ResNet50, 1.0, 0, 0}};
    auto services = calibrateServices(fm, mix.distinctModels());
    ASSERT_GT(services.at(ModelId::GPTNeoS).initService, 0);

    auto trace = poissonTrace(mix, 12.0, 40, /*seed=*/53);
    multidnn::FifoPolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.overlapInitWithExec = true;
    auto fast = simulateServing(trace, policy, services, params);

    multidnn::SchedulerConfig cfg;
    cfg.cluster.overlapInitWithExec = true;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    // Overlap actually engaged: some run's preload started before
    // its predecessor's completion.
    bool overlapped = false;
    for (std::size_t i = 1; i < real.runs.size(); ++i)
        overlapped |= real.runs[i].start < real.runs[i - 1].end;
    EXPECT_TRUE(overlapped);
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

TEST(FaultServing, CrossValidatesAgainstEventSchedulerUnderFaults)
{
    // The tentpole invariant: with an injected fault schedule, the
    // fast simulator and the real EventScheduler run the SAME shared
    // event loop over the SAME cluster state machine, so their entire
    // observable outcome — completions, sheds, retries, failovers,
    // per-request latency order (held via the order-sensitive P²
    // estimators), per-device dispatch counts and downtime — must
    // agree exactly at scale, faults included.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    // Bounded and unbounded flavors: bounded requests exercise the
    // retry-vs-readmission interplay (a doomed retry is shed), the
    // unbounded share guarantees surviving failover dispatches.
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ResNet50, 1.0, 0, 0}};
    auto services = calibrateServices(fm, mix.distinctModels());

    auto trace = poissonTrace(mix, 60.0, 2500, /*seed=*/61);

    // A mixed schedule: a mid-run crash with rejoin, a thermal
    // slowdown, a watchdog-tripping stall, and a seeded background of
    // stalls and transient DMA errors on both devices.
    multidnn::FaultPlanParams fp;
    fp.stallsPerSecond = 0.5;
    fp.meanStall = milliseconds(40);
    fp.dmaErrorsPerSecond = 1.0;
    auto plan = multidnn::crashAndRejoin(0, milliseconds(500),
                                         milliseconds(400));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::singleSlowdown(1, milliseconds(200),
                                       milliseconds(600), 3.0));
    plan = multidnn::mergeFaultPlans(
        plan,
        multidnn::singleStall(1, seconds(2), seconds(3)));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::generateFaultPlan(fp, 2, seconds(30), 7));

    multidnn::DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 2;
    params.cluster.overlapInitWithExec = true;
    params.faults = plan;
    auto fast = simulateServing(trace, policy, services, params);

    multidnn::SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.cluster.overlapInitWithExec = true;
    cfg.faults = plan;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    // The faults actually bit: kills, retries, failovers, downtime.
    ASSERT_GT(real.runs.size(), 1000u);
    ASSERT_GT(real.faults.crashes, 0);
    ASSERT_GT(real.faults.retries, 0);
    ASSERT_GT(real.faults.failovers, 0);

    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real.goodput(), fast.stats.goodput());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p95(), fast.stats.p95());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    EXPECT_DOUBLE_EQ(real_stats.meanLatencyMs(),
                     fast.stats.meanLatencyMs());

    EXPECT_EQ(real.faults.crashes, fast.faults.crashes);
    EXPECT_EQ(real.faults.timeouts, fast.faults.timeouts);
    EXPECT_EQ(real.faults.dmaAborts, fast.faults.dmaAborts);
    EXPECT_EQ(real.faults.retries, fast.faults.retries);
    EXPECT_EQ(real.faults.failovers, fast.faults.failovers);
    EXPECT_EQ(real.faults.faultSheds, fast.faults.faultSheds);
    EXPECT_EQ(real.faults.starved, fast.faults.starved);

    ASSERT_EQ(real.devices.size(), 2u);
    ASSERT_EQ(fast.devices.size(), 2u);
    for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(real.devices[d].dispatched,
                  fast.devices[d].dispatched);
        EXPECT_EQ(real.devices[d].downTime, fast.devices[d].downTime);
        EXPECT_EQ(real.devices[d].computeBusyTime,
                  fast.devices[d].computeBusyTime);
        EXPECT_EQ(real.devices[d].dmaBusyTime,
                  fast.devices[d].dmaBusyTime);
    }
}

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

    std::vector<ModelRequest> trace{{ModelId::ResNet50, 0, 0, 0},
                                    {ModelId::ViT, 10, 0, 0}};
    applyLatencyBound(trace, milliseconds(99));
    EXPECT_EQ(trace[0].latencyBound, milliseconds(99));
    applyLatencyBounds(trace, {{ModelId::ViT, milliseconds(123)}});
    EXPECT_EQ(trace[0].latencyBound, milliseconds(99));
    EXPECT_EQ(trace[1].latencyBound, milliseconds(123));
}

} // namespace
} // namespace flashmem::serving
