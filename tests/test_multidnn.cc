/**
 * @file
 * Tests for the event-driven multi-DNN scheduler: the event loop,
 * queueing-delay latency accounting, policy ordering (FIFO / SJF /
 * priority-with-aging / memory-aware admission), and on-device
 * re-planning — including its bit-determinism across planner thread
 * counts and across plan-memo reuse.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/flashmem.hh"
#include "graph/builder.hh"
#include "multidnn/event_loop.hh"
#include "multidnn/scheduler.hh"

namespace flashmem::multidnn {
namespace {

using core::FlashMem;
using core::FlashMemOptions;
using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using models::ModelId;

// ------------------------------------------------------------ event loop

TEST(EventScheduler, EmptyQueueIsANoOp)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto out = sched.run({}, FifoPolicy{});
    EXPECT_TRUE(out.runs.empty());
    EXPECT_EQ(out.makespan, 0);
    EXPECT_EQ(out.peakMemory, 0u);
    EXPECT_EQ(out.energyJoules, 0.0);
    EXPECT_EQ(out.meanLatency(), 0);
    EXPECT_EQ(out.meanQueueDelay(), 0);
    EXPECT_TRUE(out.trace.empty());
}

/**
 * Replay the seed FIFO scheduler (run in order, start at max(arrival,
 * device free)) on one shared simulator, executing model m at t with
 * @p exec(sim, m, t), and hold @p out to it run for run. The scheduler
 * reports each run as the solo profile of its model placed at its
 * dispatch, so every execution on the shared simulator must also have
 * the peak, average memory and duration of a solo run on a fresh one:
 * they may not depend on the device's history, even when one run's
 * last trace point and the next run's first collapse into one
 * (back-to-back runs, which the queue must mostly be).
 */
template <typename ExecFn>
void
expectSeedFifoDrain(const std::vector<ModelRequest> &queue,
                    const ScheduleOutcome &out, ExecFn &&exec)
{
    const auto dev = DeviceProfile::onePlus12();
    ASSERT_EQ(out.runs.size(), queue.size());
    std::map<ModelId, core::RunResult> solo;
    for (const auto &req : queue) {
        if (solo.count(req.model))
            continue;
        GpuSimulator fresh(dev);
        solo.emplace(req.model, exec(fresh, req.model, 0));
    }
    GpuSimulator sim(dev);
    SimTime free_at = 0;
    std::size_t back_to_back = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        SimTime start = std::max(queue[i].arrival, free_at);
        back_to_back += i > 0 && start == free_at;
        auto r = exec(sim, queue[i].model, start);
        const auto &run = out.runs[i];
        const auto &s = solo.at(queue[i].model);
        EXPECT_EQ(run.model, r.model) << "run " << i;
        EXPECT_EQ(run.arrival, queue[i].arrival) << "run " << i;
        EXPECT_EQ(run.start, r.start) << "run " << i;
        EXPECT_EQ(run.initDone, r.initDone) << "run " << i;
        EXPECT_EQ(run.end, r.end) << "run " << i;
        EXPECT_EQ(r.peakMemory, s.peakMemory) << "run " << i;
        EXPECT_EQ(r.avgMemoryBytes, s.avgMemoryBytes) << "run " << i;
        EXPECT_EQ(r.end - r.start, s.end - s.start) << "run " << i;
        EXPECT_EQ(run.peakMemory, s.peakMemory) << "run " << i;
        EXPECT_EQ(run.avgMemoryBytes, s.avgMemoryBytes) << "run " << i;
        free_at = r.end;
    }
    EXPECT_EQ(out.makespan, free_at);
    EXPECT_GT(back_to_back, queue.size() / 2);
}

TEST(EventScheduler, FifoPolicyMatchesSeedFifoDrain)
{
    // Under FIFO the event-driven drain must reproduce the seed
    // scheduler (compile once, run in order) exactly.
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS, ModelId::ViT}, 40,
        milliseconds(20), 11);
    ASSERT_EQ(queue.size(), 120u);
    EventScheduler sched(fm);
    auto out = sched.run(queue, FifoPolicy{});

    std::map<ModelId, core::CompiledModel> compiled;
    expectSeedFifoDrain(queue, out,
                        [&](GpuSimulator &sim, ModelId m, SimTime t) {
                            if (!compiled.count(m))
                                compiled.emplace(
                                    m, fm.compile(models::buildModel(m)));
                            return fm.execute(sim, compiled.at(m), t);
                        });
}

TEST(EventScheduler, PreloadRunsMatchSoloColdStarts)
{
    // The same for the preload path, whose runs are solo cold starts.
    auto dev = DeviceProfile::onePlus12();
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS, ModelId::ViT}, 4,
        milliseconds(20), 11);
    auto out = EventScheduler::runPreload(baselines::FrameworkId::MNN,
                                          dev, queue, FifoPolicy{});

    baselines::PreloadFramework fw(baselines::FrameworkId::MNN, dev);
    std::map<ModelId, graph::Graph> graphs;
    expectSeedFifoDrain(queue, out,
                        [&](GpuSimulator &sim, ModelId m, SimTime t) {
                            if (!graphs.count(m))
                                graphs.emplace(m, models::buildModel(m));
                            return fw.run(sim, graphs.at(m), t);
                        });
}

TEST(EventScheduler, TraceLivesInTheOutcome)
{
    // No mutable global state: each outcome owns its memory trace, and
    // a later run does not disturb an earlier outcome.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::ResNet50});
    auto first = sched.run(queue, FifoPolicy{});
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(static_cast<Bytes>(
                  first.trace.maxOver(0, first.makespan)),
              first.peakMemory);
    auto first_points = first.trace.points().size();
    auto second = sched.run(queue, FifoPolicy{});
    EXPECT_EQ(first.trace.points().size(), first_points);
    EXPECT_EQ(static_cast<Bytes>(
                  second.trace.maxOver(0, second.makespan)),
              second.peakMemory);
}

// ------------------------------------------- queueing-delay accounting

TEST(EventScheduler, MeanLatencyIncludesQueueingDelay)
{
    // Two same-time arrivals: the second request waits for the whole
    // first run, and that wait is part of its latency.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 2u);

    const auto &r0 = out.runs[0];
    const auto &r1 = out.runs[1];
    EXPECT_EQ(r0.arrival, 0);
    EXPECT_EQ(r1.arrival, 0);
    EXPECT_EQ(r0.queueDelay(), 0);
    // The second request queued behind the first for its full run.
    EXPECT_EQ(r1.start, r0.end);
    EXPECT_EQ(r1.queueDelay(), r0.end);
    EXPECT_EQ(r1.requestLatency(),
              r1.integratedLatency() + r1.queueDelay());
    EXPECT_GT(r1.requestLatency(), r1.integratedLatency());
    // Mean latency is the mean of end - arrival, not end - start.
    EXPECT_EQ(out.meanLatency(),
              (r0.requestLatency() + r1.requestLatency()) / 2);
    EXPECT_GT(out.meanLatency(),
              (r0.integratedLatency() + r1.integratedLatency()) / 2);
}

TEST(EventScheduler, StandaloneRunsHaveZeroQueueDelay)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto r = fm.runOnce(models::buildModel(ModelId::ResNet50));
    EXPECT_EQ(r.queueDelay(), 0);
    EXPECT_EQ(r.requestLatency(), r.integratedLatency());
}

// --------------------------------------------------------------- policies

TEST(Policies, SjfRunsShortJobsFirst)
{
    // GPT-Neo S is far slower than ResNet50; with both ready at t=0
    // and the slow one first in the queue, SJF must flip the order.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::GPTNeoS, ModelId::ResNet50},
                               /*gap=*/0);

    auto fifo = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(fifo.runs.size(), 2u);
    EXPECT_EQ(fifo.runs[0].model, "gptneo_s");

    auto sjf = sched.run(queue, SjfPolicy{});
    ASSERT_EQ(sjf.runs.size(), 2u);
    EXPECT_EQ(sjf.runs[0].model, "resnet50");
    // Same total work — but the short job no longer queues behind the
    // long one, so mean latency improves while makespan stays put.
    EXPECT_EQ(sjf.makespan, fifo.makespan);
    EXPECT_LT(sjf.meanLatency(), fifo.meanLatency());
}

TEST(Policies, PriorityOrdersAndAgingPreventsStarvation)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);

    // One low-priority request at t=0 and a staggered stream of
    // high-priority ones (a ResNet50 run is ~50 ms, so the backlog
    // never drains): without aging the low-priority request starves
    // to the back of the queue.
    std::vector<ModelRequest> queue;
    queue.push_back({ModelId::DepthAnythingS, 0, /*priority=*/0});
    for (int i = 0; i < 4; ++i)
        queue.push_back({ModelId::ResNet50, milliseconds(30 * i),
                         /*priority=*/5});

    PriorityAgingPolicy no_aging(/*aging_quantum=*/seconds(1e6));
    auto strict = sched.run(queue, no_aging);
    ASSERT_EQ(strict.runs.size(), queue.size());
    EXPECT_EQ(strict.runs.back().model, "depth_anything_s");
    for (std::size_t i = 0; i + 1 < strict.runs.size(); ++i)
        EXPECT_EQ(strict.runs[i].model, "resnet50");

    // With a small quantum the waiting request out-ages the fresher
    // high-priority arrivals (its head start in waiting time closes
    // the 5-level priority gap) and runs second instead of last.
    PriorityAgingPolicy aging(/*aging_quantum=*/milliseconds(4));
    auto aged = sched.run(queue, aging);
    ASSERT_EQ(aged.runs.size(), queue.size());
    EXPECT_EQ(aged.runs[1].model, "depth_anything_s");
}

TEST(Policies, MakePolicyCoversAllKinds)
{
    for (auto kind : allPolicyKinds()) {
        auto p = makePolicy(kind);
        ASSERT_NE(p, nullptr);
        EXPECT_NE(std::string(p->name()), "");
    }
    EXPECT_TRUE(MemoryAwarePolicy{}.memoryAware());
    EXPECT_FALSE(FifoPolicy{}.memoryAware());
}

// ------------------------------------------ deadline / SLO admission

TEST(Deadline, BoundedRequestBehindLongLlmRunIsShedNotBlown)
{
    // A long GPT-Neo run holds the device; a ResNet50 with a tight
    // latency bound arrives just after. By the time the device frees,
    // the bound cannot be met even if dispatched immediately —
    // deadline admission sheds it instead of blowing its SLO, and the
    // shed request does not count toward goodput.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0,
         /*latencyBound=*/milliseconds(60)},
    };

    // FIFO runs it anyway and blows the bound.
    auto fifo = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(fifo.runs.size(), 2u);
    EXPECT_FALSE(fifo.runs[1].metSlo());
    EXPECT_EQ(fifo.goodput(), 1u);
    EXPECT_EQ(fifo.sloViolations(), 1u);
    EXPECT_TRUE(fifo.shed.empty());

    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].model, "gptneo_s");
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0].queueIndex, 1u);
    EXPECT_EQ(out.shed[0].model, ModelId::ResNet50);
    EXPECT_EQ(out.shed[0].latencyBound, milliseconds(60));
    EXPECT_GE(out.shed[0].shedAt, out.runs[0].start);
    // Goodput counts only completed-in-bound runs; shed ones never do.
    EXPECT_EQ(out.goodput(), 1u);
    EXPECT_EQ(out.sloViolations(), 0u);
    EXPECT_DOUBLE_EQ(out.goodputRate(), 0.5);
    EXPECT_DOUBLE_EQ(out.shedRate(), 0.5);
}

TEST(Deadline, DegradeModeReplansInsteadOfShedding)
{
    // Same doomed request under Overload::Degrade: it still runs —
    // at a degraded (re-planned) budget that frees shared capacity —
    // and is counted as a violation, not a shed.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(60)},
    };
    auto out = sched.run(
        queue, DeadlinePolicy{DeadlinePolicy::Overload::Degrade});
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.degradedRuns, 1);
    EXPECT_TRUE(out.runs[1].degraded);
    EXPECT_FALSE(out.runs[0].degraded);
    // The degraded dispatch re-planned the model at the smaller
    // budget through FlashMem::replan.
    EXPECT_GT(out.replans, 0);
    EXPECT_EQ(out.goodput(), 1u);
    EXPECT_EQ(out.sloViolations(), 1u);
    EXPECT_DOUBLE_EQ(out.shedRate(), 0.0);
}

TEST(Deadline, FeasibleBoundedRequestsRunAndMeetTheirSlo)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, seconds(10)},
        {ModelId::DepthAnythingS, milliseconds(1), 0, seconds(10)},
    };
    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.goodput(), 2u);
    EXPECT_DOUBLE_EQ(out.goodputRate(), 1.0);
}

TEST(Deadline, EdfRunsEarlierDeadlineFirst)
{
    // Both ready while the device is busy; the later-queued request
    // has the earlier absolute deadline and must dispatch first.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, seconds(30)},
        {ModelId::DepthAnythingS, milliseconds(2), 0, seconds(5)},
    };
    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 3u);
    EXPECT_EQ(out.runs[1].model, "depth_anything_s");
    EXPECT_EQ(out.runs[2].model, "resnet50");
}

// ------------------------------------------------- on-device re-planning

TEST(Replanning, ReplanShrinksInflightBudgetDeterministically)
{
    // Byte-identical re-plans across planner thread counts: the
    // stage/solve/merge pipeline makes each window solve a pure
    // function of its staged input, so the serialized plan cannot
    // depend on how many workers solved it — budget-truncated windows
    // included.
    auto g = models::buildModel(ModelId::ResNet50);
    auto replan_with_threads = [&](int threads) {
        FlashMemOptions opt;
        opt.opg.parallel.threads = threads;
        FlashMem fm(DeviceProfile::onePlus12(), opt);
        auto compiled = fm.compile(g);
        auto replanned = fm.replan(compiled, mib(96));
        EXPECT_EQ(replanned.planBudget, mib(96));
        EXPECT_EQ(replanned.replans, 1);
        EXPECT_TRUE(replanned.plan.validate(replanned.fusedGraph,
                                            false));
        return replanned.plan.serialize();
    };
    auto t1 = replan_with_threads(1);
    auto t4 = replan_with_threads(4);
    EXPECT_EQ(t1, t4);
}

/** Small residual MLP whose plan windows exhaust (prove optimality)
 * within the decision budget. */
graph::Graph
tinyReplanModel()
{
    graph::GraphBuilder b("replan_tiny", Precision::FP16);
    auto x = b.input({64, 256});
    for (int i = 0; i < 3; ++i) {
        std::string p = "blk" + std::to_string(i);
        auto n = b.layerNorm(x, p + ".ln");
        auto h = b.matmul(n, 1024, p + ".fc1");
        h = b.activation(h, graph::OpKind::GeLU, p + ".act");
        h = b.matmul(h, 256, p + ".fc2");
        x = b.add(x, h, p + ".res");
    }
    return b.build();
}

TEST(Replanning, ReplanIsByteIdenticalAcrossWarmMemo)
{
    // Re-planning the same budget twice through the FlashMem's memo:
    // the second pass completes its window rounds from the first's
    // finished solves and must reproduce the plan byte for byte.
    auto g = tinyReplanModel();
    FlashMemOptions opt;
    opt.opg.chunkBytes = kib(256);
    opt.opg.solverDecisionsPerWindow = 2000000;
    FlashMem fm(DeviceProfile::onePlus12(), opt);
    auto compiled = fm.compile(g);

    auto cold = fm.replan(compiled, mib(4));
    ASSERT_EQ(cold.stats.overallStatus, solver::SolveStatus::Optimal);
    auto reused = fm.replan(compiled, mib(4));
    EXPECT_EQ(cold.plan.serialize(), reused.plan.serialize());
    EXPECT_GT(reused.planMemoHits, 0u);
}

TEST(Replanning, ReplanChangesThePlanUnderATighterBudget)
{
    // A genuinely shrunken budget forces more preloading (the
    // in-flight bound C2 tightens), so the sibling plan differs and
    // preloads at least as much.
    auto g = models::buildModel(ModelId::GPTNeoS);
    FlashMem fm(DeviceProfile::onePlus12());
    auto compiled = fm.compile(g);
    auto shrunk = fm.replan(compiled, mib(8));
    EXPECT_TRUE(shrunk.plan.validate(shrunk.fusedGraph, false));
    EXPECT_GE(shrunk.plan.preloadBytes(shrunk.fusedGraph),
              compiled.plan.preloadBytes(compiled.fusedGraph));
    EXPECT_LE(shrunk.overlapFraction(), compiled.overlapFraction());
}

TEST(Replanning, MemoryAwareAdmissionReplansUnderContention)
{
    // Three distinct models under a tight shared budget: admission
    // shrinks the per-model share, triggering re-plans; the outcome
    // stays a valid serialized schedule.
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.capacityBudget = mib(768);
    EventScheduler sched(fm, cfg);
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS, ModelId::ViT}, 2,
        0, 3);
    auto out = sched.run(queue, MemoryAwarePolicy{});
    ASSERT_EQ(out.runs.size(), queue.size());
    EXPECT_GT(out.replans, 0);
    // Serialized device: runs never overlap.
    for (std::size_t i = 1; i < out.runs.size(); ++i)
        EXPECT_GE(out.runs[i].start, out.runs[i - 1].end);
    // FIFO selection underneath: same dispatch order as plain FIFO.
    auto fifo = sched.run(queue, FifoPolicy{});
    for (std::size_t i = 0; i < out.runs.size(); ++i)
        EXPECT_EQ(out.runs[i].model, fifo.runs[i].model);
}

// ------------------------------------- device cluster / placement

TEST(Cluster, PlanTimesFollowsTheTwoResourceRule)
{
    // Serialized device: init and exec back to back from `now`.
    ClusterConfig serial_cfg;
    DeviceCluster serial(serial_cfg);
    auto t = serial.planTimes(0, 100, 40, 60);
    EXPECT_EQ(t.start, 100);
    EXPECT_EQ(t.initDone, 140);
    EXPECT_EQ(t.end, 200);
    serial.commit(0, ModelId::ResNet50, mib(512), t);
    EXPECT_FALSE(serial.canAccept(0, 150));
    EXPECT_TRUE(serial.anyAccepting(200) == false); // still in flight
    serial.complete(0);
    EXPECT_TRUE(serial.canAccept(0, 200));

    // Overlap: the next run's preload starts when the DMA queue
    // frees, and its compute queues behind the previous run.
    ClusterConfig ov_cfg;
    ov_cfg.overlapInitWithExec = true;
    DeviceCluster ov(ov_cfg);
    auto a = ov.planTimes(0, 0, 40, 60);
    ov.commit(0, ModelId::ResNet50, mib(512), a);
    EXPECT_EQ(a.end, 100);
    // DMA frees at 40; a second request dispatched then overlaps.
    EXPECT_TRUE(ov.canAccept(0, 40));
    auto b = ov.planTimes(0, 40, 40, 60);
    EXPECT_EQ(b.start, 40);
    EXPECT_EQ(b.initDone, 80);
    EXPECT_EQ(b.end, 160); // compute waits for a's end at 100
    ov.commit(0, ModelId::ResNet50, mib(512), b);
    // Pipeline depth 2: no third request until a completes.
    EXPECT_FALSE(ov.canAccept(0, 80));
    ov.complete(0);
    EXPECT_TRUE(ov.canAccept(0, 100));

    // Plan residency accounting: same budget re-uses the resident
    // plan, a different budget counts a switch.
    EXPECT_EQ(ov.devices()[0].planSwitches, 1);
    ov.commit(0, ModelId::ResNet50, mib(256),
              ov.planTimes(0, 100, 40, 60));
    EXPECT_EQ(ov.devices()[0].planSwitches, 2);
}

TEST(Cluster, TwoDevicesRunSimultaneousArrivalsInParallel)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);

    EventScheduler single(fm);
    auto serial = single.run(queue, FifoPolicy{});

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 2u);
    // Both dispatch at t=0 on distinct devices; the queue-behind-the-
    // first latency of the serialized device disappears.
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[1].start, 0);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_LT(out.makespan, serial.makespan);
    EXPECT_EQ(out.makespan, serial.runs[0].end);
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].dispatched, 1u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
}

TEST(Cluster, LeastLoadedTieBreaksDeterministically)
{
    // Equal-load (idle) devices: the lowest id wins, and the whole
    // schedule is reproducible run to run.
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 3;
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS}, 3,
        milliseconds(5), 7);

    EventScheduler sched(fm, cfg);
    auto a = sched.run(queue, FifoPolicy{});
    auto b = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(a.runs.size(), queue.size());
    EXPECT_EQ(a.runs[0].device, 0); // first pick on the lowest id
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].device, b.runs[i].device);
        EXPECT_EQ(a.runs[i].start, b.runs[i].start);
        EXPECT_EQ(a.runs[i].end, b.runs[i].end);
    }
}

TEST(Cluster, LeastLoadedPicksTheIdleLongestDevice)
{
    // One model, two requests far apart: both devices are idle when
    // the second arrives, and device 1 has been free longer, so the
    // second request lands there and pays a second plan residency.
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, seconds(2), 0, 0},
    };

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_EQ(out.devices[0].planSwitches + out.devices[1].planSwitches,
              2);
}

TEST(Cluster, OverlapImprovesBackToBackMakespan)
{
    // Back-to-back LLM requests on one device: with cross-request
    // overlap each request's streamed preload runs on the DMA queue
    // while the previous request computes, so every run after the
    // first hides its full init phase.
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload(
        {ModelId::GPTNeoS, ModelId::GPTNeoS, ModelId::GPTNeoS},
        /*gap=*/0);

    EventScheduler serial_sched(fm);
    auto serial = serial_sched.run(queue, FifoPolicy{});

    SchedulerConfig cfg;
    cfg.cluster.overlapInitWithExec = true;
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 3u);

    SimTime service = serial.runs[0].integratedLatency();
    SimTime init = out.runs[0].initLatency();
    SimTime exec = out.runs[0].execLatency();
    ASSERT_GT(init, 0);
    // First run is identical to the serialized one.
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[0].end, service);
    // The two-resource recurrence: each run's preload starts when the
    // DMA queue frees and a pipeline slot opens (the run before the
    // previous one completed), and its compute phase queues behind
    // the previous run's end.
    for (std::size_t i = 1; i < out.runs.size(); ++i) {
        SimTime slot_free =
            i >= 2 ? out.runs[i - 2].end : SimTime{0};
        EXPECT_EQ(out.runs[i].start,
                  std::max(out.runs[i - 1].initDone, slot_free));
        EXPECT_EQ(out.runs[i].initDone, out.runs[i].start + init);
        EXPECT_EQ(out.runs[i].end,
                  std::max(out.runs[i].initDone,
                           out.runs[i - 1].end) +
                      exec);
    }
    // Every run after the first hides (part of) its init behind the
    // predecessor's compute: the pipelined makespan beats serial,
    // and equals the recurrence unrolled from the solo profile.
    EXPECT_EQ(serial.makespan, 3 * service);
    SimTime e0 = service;
    SimTime e1 = std::max(2 * init, e0) + exec;
    SimTime s2 = std::max(2 * init, e0);
    SimTime e2 = std::max(s2 + init, e1) + exec;
    EXPECT_EQ(out.makespan, e2);
    EXPECT_LT(out.makespan, serial.makespan);

    // DMA-busy accounting reports the overlapped init work directly.
    ASSERT_EQ(out.devices.size(), 1u);
    EXPECT_EQ(out.devices[0].dmaBusyTime, 3 * init);
    EXPECT_GT(out.devices[0].dmaUtilization, 0.0);
    EXPECT_LE(out.devices[0].computeUtilization, 1.0);
}

TEST(Cluster, PerDeviceUtilizationAccountsAllDispatchedWork)
{
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    EventScheduler sched(fm, cfg);
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS}, 2,
        milliseconds(10), 5);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.devices.size(), 2u);

    std::size_t dispatched = 0;
    SimTime busy = 0;
    for (const auto &d : out.devices) {
        dispatched += d.dispatched;
        busy += d.computeBusyTime + d.dmaBusyTime;
        EXPECT_GE(d.computeUtilization, 0.0);
        EXPECT_LE(d.computeUtilization, 1.0);
        EXPECT_GE(d.dmaUtilization, 0.0);
        EXPECT_LE(d.dmaUtilization, 1.0);
        EXPECT_GT(d.peakMemory, 0u);
    }
    EXPECT_EQ(dispatched, out.runs.size());
    // Serialized devices: per-run init + exec phases partition each
    // run, so summed busy time equals summed integrated latency.
    SimTime integrated = 0;
    for (const auto &r : out.runs)
        integrated += r.integratedLatency();
    EXPECT_EQ(busy, integrated);
}

TEST(Cluster, PreloadPathShardsButNeverOverlaps)
{
    // The preloading baselines support multi-device sharding, but
    // cross-request overlap is forced off: their init is not a
    // streamed DMA-queue phase — re-initializing per request on the
    // serialized device is exactly the overhead the paper targets.
    auto dev = DeviceProfile::onePlus12();
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);
    ClusterConfig cluster;
    cluster.deviceCount = 2;
    cluster.overlapInitWithExec = true; // ignored by the baselines
    auto out = EventScheduler::runPreload(
        baselines::FrameworkId::MNN, dev, queue, FifoPolicy{}, cluster);
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[1].start, 0);
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].dispatched, 1u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
}

// ------------------------------------------------------ fault injection

TEST(Faults, PlanGeneratorIsSeededAndDeviceStable)
{
    FaultPlanParams p;
    p.crashesPerSecond = 2.0;
    p.stallsPerSecond = 3.0;
    p.slowdownsPerSecond = 1.0;
    p.dmaErrorsPerSecond = 2.0;

    auto a = generateFaultPlan(p, 4, seconds(10), 99);
    auto b = generateFaultPlan(p, 4, seconds(10), 99);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time, b.events[i].time);
        EXPECT_EQ(a.events[i].device, b.events[i].device);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].duration, b.events[i].duration);
        EXPECT_EQ(a.events[i].factor, b.events[i].factor);
    }

    // Events are sorted, on valid devices, and every crash has its
    // rejoin later on the same device.
    std::map<int, int> crash_balance;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const auto &e = a.events[i];
        EXPECT_GE(e.device, 0);
        EXPECT_LT(e.device, 4);
        if (i > 0) {
            EXPECT_LE(a.events[i - 1].time, e.time);
        }
        if (e.kind == FaultKind::Crash) {
            EXPECT_EQ(crash_balance[e.device], 0);
            ++crash_balance[e.device];
        } else if (e.kind == FaultKind::Rejoin) {
            EXPECT_EQ(crash_balance[e.device], 1);
            --crash_balance[e.device];
        }
    }

    // Growing the cluster never shifts an existing device's timeline:
    // the 8-device plan restricted to devices 0-3 is exactly the
    // 4-device plan (independent per-device streams).
    auto c = generateFaultPlan(p, 8, seconds(10), 99);
    std::vector<FaultEvent> low;
    for (const auto &e : c.events) {
        if (e.device < 4)
            low.push_back(e);
    }
    ASSERT_EQ(low.size(), a.events.size());
    for (std::size_t i = 0; i < low.size(); ++i) {
        EXPECT_EQ(low[i].time, a.events[i].time);
        EXPECT_EQ(low[i].device, a.events[i].device);
        EXPECT_EQ(low[i].kind, a.events[i].kind);
    }

    // A different seed produces a different schedule.
    auto d = generateFaultPlan(p, 4, seconds(10), 100);
    bool differs = d.events.size() != a.events.size();
    for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = a.events[i].time != d.events[i].time;
    EXPECT_TRUE(differs);
}

TEST(Faults, ClusterHealthStateMachine)
{
    ClusterConfig cc;
    cc.deviceCount = 2;
    cc.overlapInitWithExec = true;
    DeviceCluster cluster(cc);

    // A healthy overlap device pipelines two requests.
    auto t = cluster.planTimes(0, 0, milliseconds(2), milliseconds(10));
    cluster.commit(0, ModelId::ResNet50, mib(512), t);
    EXPECT_TRUE(cluster.canAccept(0, t.initDone));

    // Crash: Down, nothing accepted, plan residency wiped.
    cluster.crash(0, milliseconds(5));
    const auto &d0 = cluster.devices()[0];
    EXPECT_EQ(d0.health, DeviceHealth::Down);
    EXPECT_TRUE(d0.crashDown);
    EXPECT_FALSE(cluster.canAccept(0, milliseconds(6)));
    EXPECT_TRUE(d0.residentPlanBudget.empty());
    EXPECT_TRUE(cluster.anyAccepting(milliseconds(6))); // device 1

    // Rejoin: Suspect, probation caps the pipeline at depth 1.
    cluster.rejoin(0, milliseconds(105), /*probation=*/milliseconds(50));
    EXPECT_EQ(d0.health, DeviceHealth::Suspect);
    EXPECT_EQ(d0.downTime, milliseconds(100));
    EXPECT_TRUE(cluster.canAccept(0, milliseconds(110)));
    auto t2 = cluster.planTimes(0, milliseconds(110), milliseconds(2),
                                milliseconds(10));
    cluster.commit(0, ModelId::ResNet50, mib(512), t2);
    // Inside probation: one in flight saturates the probe.
    EXPECT_FALSE(cluster.canAccept(0, milliseconds(113)));
    // Past probation: full overlap depth again.
    EXPECT_TRUE(cluster.canAccept(0, milliseconds(160)));
    cluster.complete(0);

    // Slowdown scales only dispatches placed inside the window.
    cluster.setSlowdown(1, 2.0, milliseconds(300));
    auto s = cluster.planTimes(1, milliseconds(200), milliseconds(2),
                               milliseconds(10));
    EXPECT_EQ(s.initDone - s.start, milliseconds(4));
    EXPECT_EQ(s.end - s.initDone, milliseconds(20));
    auto s2 = cluster.planTimes(1, milliseconds(300), milliseconds(2),
                                milliseconds(10));
    EXPECT_EQ(s2.end - s2.start, milliseconds(12));

    // Stall shifts an idle device's horizons to now + duration.
    cluster.delay(1, milliseconds(400), milliseconds(50));
    EXPECT_EQ(cluster.devices()[1].computeBusyUntil, milliseconds(450));
    EXPECT_EQ(cluster.devices()[1].dmaBusyUntil, milliseconds(450));

    // A transient DMA abort rolls the youngest commit back exactly.
    const auto &d1 = cluster.devices()[1];
    auto dispatched_before = d1.dispatched;
    auto switches_before = d1.planSwitches;
    auto t3 = cluster.planTimes(1, milliseconds(500), milliseconds(2),
                                milliseconds(10));
    cluster.commit(1, ModelId::ResNet50, mib(512), t3);
    EXPECT_EQ(d1.inFlight, 1);
    cluster.abortLastCommit(1);
    EXPECT_EQ(d1.inFlight, 0);
    EXPECT_EQ(d1.dispatched, dispatched_before);
    EXPECT_EQ(d1.planSwitches, switches_before);
    EXPECT_EQ(d1.computeBusyUntil, milliseconds(450));
    EXPECT_EQ(d1.dmaBusyUntil, milliseconds(450));
    EXPECT_EQ(d1.residentPlanBudget.count(ModelId::ResNet50), 0u);

    // Downtime accounting covers a still-open Down interval.
    cluster.markDown(1, milliseconds(500));
    auto rows = cluster.utilization(milliseconds(600));
    EXPECT_EQ(rows[0].downTime, milliseconds(100));
    EXPECT_DOUBLE_EQ(rows[0].downFraction, 100.0 / 600.0);
    EXPECT_EQ(rows[1].downTime, milliseconds(100)); // 500 -> 600 open
}

TEST(Faults, CrashMidRunFailsOverToSurvivingDevice)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0},
                                    {ModelId::ResNet50, 0, 0, 0}};

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.faults = singleCrash(0, /*at=*/1); // 1 ns in: mid-first-run
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    // The killed dispatch retried on the survivor; nothing was lost.
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.faults.crashes, 1);
    EXPECT_EQ(out.faults.retries, 1);
    EXPECT_EQ(out.faults.failovers, 1);
    EXPECT_EQ(out.faults.faultSheds, 0);
    EXPECT_EQ(out.faults.timeouts, 0);
    for (const auto &r : out.runs)
        EXPECT_EQ(r.device, 1);
    // The retry waited out its backoff before re-dispatching.
    EXPECT_GE(out.runs.back().start, 1 + kBackoffBase);
    // The dead device's outage is accounted until the makespan.
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].downTime, out.makespan - 1);
    EXPECT_GT(out.devices[0].downFraction, 0.9);
}

TEST(Faults, StallWithinBudgetCompletesLateNotKilled)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    // Fault-free reference.
    EventScheduler ref_sched(fm);
    auto ref = ref_sched.run(queue, FifoPolicy{});
    ASSERT_EQ(ref.runs.size(), 1u);
    const SimTime service = ref.runs[0].end - ref.runs[0].start;

    // A stall shorter than the timeout slack shifts the completion by
    // exactly its duration — no watchdog, no retry.
    const SimTime stall = service; // 2x service < 3x budget
    SchedulerConfig cfg;
    cfg.faults = singleStall(0, /*at=*/1, stall);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].end, ref.runs[0].end + stall);
    EXPECT_EQ(out.faults.timeouts, 0);
    EXPECT_EQ(out.faults.retries, 0);
    EXPECT_EQ(out.devices[0].downTime, 0);
}

TEST(Faults, StallBeyondBudgetTriggersWatchdogFailover)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    // A multi-second wedge blows the 3x timeout budget of any model.
    cfg.faults = singleStall(0, /*at=*/1, seconds(5));
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].device, 1); // failed over to the survivor
    EXPECT_EQ(out.faults.timeouts, 1);
    EXPECT_EQ(out.faults.retries, 1);
    EXPECT_EQ(out.faults.failovers, 1);
    EXPECT_EQ(out.faults.crashes, 0); // wedged, not crashed
    EXPECT_TRUE(out.shed.empty());
    EXPECT_GT(out.devices[0].downTime, 0);
    // The watchdog fired at the blown budget, well before the wedge
    // cleared, so the retry did not wait out the whole stall.
    EXPECT_LT(out.runs[0].end, seconds(5));
}

TEST(Faults, RetryBudgetExhaustionFaultSheds)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    // One device that crashes every 10 ms, well inside ResNet50's
    // service time: every dispatch of the request is killed, and the
    // kill after kMaxRetries retries sheds it.
    SchedulerConfig cfg;
    cfg.faults = flappingDevice(0, /*firstCrash=*/1,
                                /*period=*/milliseconds(10),
                                /*downFor=*/milliseconds(1),
                                /*cycles=*/kMaxRetries + 1);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    EXPECT_TRUE(out.runs.empty());
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0].reason, DropReason::FaultBudget);
    EXPECT_EQ(out.faults.faultSheds, 1);
    EXPECT_EQ(out.faults.retries, kMaxRetries);
    EXPECT_EQ(out.faults.crashes, kMaxRetries + 1);
    EXPECT_EQ(out.goodput(), 0u);
}

TEST(Faults, StarvedRequestsAreRecordedNotSilentlyDropped)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, 0}};

    // The only device crashes and never rejoins: the in-flight run's
    // retry and the queued arrival both end the drain starved.
    SchedulerConfig cfg;
    cfg.faults = singleCrash(0, /*at=*/1);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    EXPECT_TRUE(out.runs.empty());
    ASSERT_EQ(out.shed.size(), 2u);
    for (const auto &s : out.shed)
        EXPECT_EQ(s.reason, DropReason::Starved);
    EXPECT_EQ(out.faults.starved, 2);
    EXPECT_EQ(out.faults.crashes, 1);
    EXPECT_EQ(out.faults.retries, 1); // the kill scheduled one retry
}

TEST(Faults, FlappingDeviceNeverDeadlocksOrLosesRequests)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue;
    for (int i = 0; i < 8; ++i)
        queue.push_back(
            {ModelId::ResNet50, i * milliseconds(5), 0, 0});

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.faults = flappingDevice(0, /*firstCrash=*/milliseconds(2),
                                /*period=*/milliseconds(40),
                                /*downFor=*/milliseconds(20),
                                /*cycles=*/5);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    // Terminates (no deadlock) with every request accounted for:
    // completed, fault-shed, or starved — never vanished.
    EXPECT_EQ(out.runs.size() + out.shed.size(), queue.size());
    EXPECT_GE(out.faults.crashes, 2);
    for (const auto &s : out.shed)
        EXPECT_NE(s.reason, DropReason::Admission); // FIFO never sheds
    // Flap downtime is accounted on the flapping device only.
    EXPECT_GT(out.devices[0].downTime, 0);
    EXPECT_EQ(out.devices[1].downTime, 0);
}

/** A backend in which every run takes 10 ms: drives the event loop
 * directly, with a stuck-clock limit of one event per instant. */
struct TenMsRuns
{
    SimTime estimate(ModelId) const { return milliseconds(10); }
    RunService
    service(const ReadyRequest &, const std::vector<ReadyRequest> &,
            SimTime) const
    {
        return {0, 0, milliseconds(10)};
    }
    void placed(const ReadyRequest &, const DispatchedRun &,
                std::uint64_t) {}
    void completed(const ReadyRequest &, const DispatchedRun &,
                   std::uint64_t) {}
    void dropped(const ReadyRequest &, SimTime, DropReason) {}
};

void
drainWithStuckLimitOne(const std::vector<ModelRequest> &queue)
{
    DeviceCluster cluster(ClusterConfig{});
    TenMsRuns runs;
    drainClusterQueue(queue, FifoPolicy{}, cluster, runs,
                      /*ready_limit=*/0, /*faults=*/nullptr,
                      /*counters=*/nullptr, /*arrival=*/nullptr,
                      /*trace=*/nullptr, /*stuck_limit=*/1);
}

TEST(Faults, StuckClockGuardPanicsLoudly)
{
    // Three simultaneous arrivals share one instant; a stuck limit of
    // one event per instant trips the guard deterministically.
    std::vector<ModelRequest> queue(3, {ModelId::ResNet50, 0, 0, 0});
    EXPECT_DEATH(drainWithStuckLimitOne(queue), "event loop stuck");
}

TEST(Faults, StuckClockDiagnosticCountsArrivalsNotYetConsumed)
{
    // Arrivals stream from the queue, not the event heap, and the
    // panic's pendingEvents counts both: four simultaneous arrivals
    // trip a one-event limit at the second, with two still to come.
    std::vector<ModelRequest> queue(4, {ModelId::ResNet50, 0, 0, 0});
    EXPECT_DEATH(drainWithStuckLimitOne(queue),
                 "ready=1 pendingEvents=2 inFlight=0");
}

} // namespace
} // namespace flashmem::multidnn
