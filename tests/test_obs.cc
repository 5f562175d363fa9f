/**
 * @file
 * Tests for the observability layer (obs/trace.hh): the
 * trace-determinism property (byte-identical text export across two
 * runs; fast-sim vs EventScheduler Stream::Serving
 * equality under a mixed fault + admission schedule) and Chrome JSON
 * structural sanity.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/flashmem.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

#include "fault_plan_gen.hh"

namespace flashmem::obs {
namespace {

using models::ModelId;
using multidnn::DeadlinePolicy;
using serving::AdmissionController;
using serving::ModelMix;
using serving::ServiceEstimator;
using serving::calibrateServices;
using serving::poissonTrace;
using serving::ServingSimParams;
using serving::simulateServing;

/** @p rec's text export of @p stream as a string. */
std::string
textOf(const TraceRecorder &rec, Stream stream = Stream::Full)
{
    std::ostringstream os;
    rec.writeText(os, stream);
    return os.str();
}

// ------------------------------------------------ recorder basics

TEST(TraceRecorder, TextExportIsSortedAndTagged)
{
    TraceRecorder rec;
    // Emit out of time order: the export must sort (stably) by time.
    rec.requestComplete(milliseconds(2), 0, 0, 0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1));
    rec.requestArrival(0, 0,
                       static_cast<std::int32_t>(ModelId::ResNet50),
                       milliseconds(150));

    auto text = textOf(rec);
    auto arrival = text.find("request_arrival");
    auto complete = text.find("request_complete");
    ASSERT_NE(arrival, std::string::npos);
    ASSERT_NE(complete, std::string::npos);
    EXPECT_LT(arrival, complete);
    EXPECT_NE(text.find("model=ResNet50"), std::string::npos) << text;
    EXPECT_NE(text.find("bound=150000000"), std::string::npos);
}

TEST(TraceRecorder, ServingStreamExcludesPlannerEvents)
{
    TraceRecorder rec;
    rec.replan(0, static_cast<std::int32_t>(ModelId::ViT), mib(256),
               0, 3);
    rec.solverWindow(0, 0, static_cast<std::int32_t>(ModelId::ViT),
                     1, 3, 1);
    rec.requestShed(0, 7, static_cast<std::int32_t>(ModelId::ViT),
                    /*reason=*/0, /*attempts=*/0);

    auto full = textOf(rec, Stream::Full);
    EXPECT_NE(full.find("replan"), std::string::npos);
    EXPECT_NE(full.find("solver_window"), std::string::npos);

    auto serving = textOf(rec, Stream::Serving);
    EXPECT_EQ(serving.find("replan"), std::string::npos) << serving;
    EXPECT_EQ(serving.find("solver_window"), std::string::npos);
    EXPECT_NE(serving.find("request_shed"), std::string::npos);
    EXPECT_NE(serving.find("reason=admission"), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonHasTracksAndBalancedBraces)
{
    TraceRecorder rec;
    rec.requestArrival(0, 0,
                       static_cast<std::int32_t>(ModelId::ResNet50),
                       0);
    rec.requestDispatch(0, 0, 0, /*device=*/0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1), milliseconds(2));
    rec.requestComplete(milliseconds(2), 0, 0, 0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1));
    rec.faultInjected(milliseconds(1), 0, 0, /*kind=*/0,
                      milliseconds(5), 0);
    rec.replan(0, static_cast<std::int32_t>(ModelId::ResNet50),
               mib(256), 0, 2);

    std::ostringstream os;
    rec.writeChromeJson(os);
    auto json = os.str();

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // The track metadata Perfetto keys lanes off.
    EXPECT_NE(json.find("dev 0 compute"), std::string::npos);
    EXPECT_NE(json.find("dev 0 dma"), std::string::npos);
    EXPECT_NE(json.find("\"planner\""), std::string::npos);
    EXPECT_NE(json.find("\"requests\""), std::string::npos);
    // Async request lane: begin and end with a shared id.
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);

    std::int64_t braces = 0, brackets = 0;
    for (char ch : json) {
        braces += ch == '{';
        braces -= ch == '}';
        brackets += ch == '[';
        brackets -= ch == ']';
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// ------------------------------------- the determinism property

/** The fig6 determinism workload: memory-aware re-planning under a
 * tight shared budget, so the planner-side events (replan,
 * solver_window) are exercised. */
multidnn::ScheduleOutcome
runTracedSchedulerArm(TraceRecorder &rec)
{
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    multidnn::SchedulerConfig cfg;
    cfg.capacityBudget = mib(768);
    cfg.trace = &rec;
    multidnn::EventScheduler sched(fm, cfg);
    auto queue = multidnn::interleavedWorkload(
        {ModelId::ResNet50, ModelId::GPTNeoS, ModelId::DepthAnythingS},
        /*iterations=*/2, /*gap=*/milliseconds(10), /*seed=*/17);
    return sched.run(queue, multidnn::MemoryAwarePolicy{});
}

TEST(TraceDeterminism, SchedulerTraceIdenticalAcrossRuns)
{
    TraceRecorder rec1, rec2;
    auto out1 = runTracedSchedulerArm(rec1);
    auto out2 = runTracedSchedulerArm(rec2);

    // The workload actually re-planned, so the trace carries
    // planner-side events whose payloads come from the window solves.
    ASSERT_GT(out1.replans, 0);
    ASSERT_EQ(out1.replans, out2.replans);
    auto text1 = textOf(rec1);
    ASSERT_NE(text1.find("replan "), std::string::npos);
    ASSERT_NE(text1.find("solver_window"), std::string::npos);
    ASSERT_NE(text1.find("request_dispatch"), std::string::npos);

    // Byte-identical export from two runs on separate FlashMems.
    EXPECT_EQ(text1, textOf(rec2));
}

TEST(TraceDeterminism, FastSimMatchesEventSchedulerServingStream)
{
    // The mixed schedule of the fault cross-validation test PLUS the
    // arrival-admission gate: both execution paths drain the same
    // shared event loop, so their Stream::Serving exports must be
    // byte-identical — arrival order, verdicts, dispatch timelines,
    // retries, fault deliveries, health transitions, all of it.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ResNet50, 1.0, 0, 0}};
    auto services = calibrateServices(fm, mix.distinctModels());
    auto trace = poissonTrace(mix, 60.0, 2500, /*seed=*/61);

    multidnn::FaultPlanParams fp;
    fp.crashesPerSecond = 0.5;
    fp.slowdownsPerSecond = 0.5;
    auto plan = multidnn::crashAndRejoin(0, milliseconds(500),
                                         milliseconds(400));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::singleSlowdown(1, milliseconds(200),
                                       milliseconds(600), 3.0));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::generateFaultPlan(fp, 2, seconds(30), 7));

    // One shared gate, per-path recorders (the ArrivalAdmission
    // contract: hand the SAME gate object to both paths).
    ServiceEstimator estimator(services);
    AdmissionController gate(estimator);
    DeadlinePolicy policy;

    TraceRecorder fast_rec;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 2;
    params.cluster.overlapInitWithExec = true;
    params.faults = plan;
    params.arrival = &gate;
    params.trace = &fast_rec;
    auto fast = simulateServing(trace, policy, services, params);
    gate.resetDecisions();

    // Tracing observes and never perturbs: the same fast sim without a
    // recorder ends in the same outcome.
    params.trace = nullptr;
    auto plain = simulateServing(trace, policy, services, params);
    gate.resetDecisions();
    EXPECT_EQ(plain.stats.completed(), fast.stats.completed());
    EXPECT_EQ(plain.stats.shedCount(), fast.stats.shedCount());
    EXPECT_EQ(plain.arrivalSheds, fast.arrivalSheds);
    EXPECT_EQ(plain.stats.goodput(), fast.stats.goodput());
    EXPECT_EQ(plain.stats.p50(), fast.stats.p50());
    EXPECT_EQ(plain.stats.p95(), fast.stats.p95());
    EXPECT_EQ(plain.stats.p99(), fast.stats.p99());
    EXPECT_EQ(plain.makespan, fast.makespan);
    EXPECT_EQ(plain.faults.crashes, fast.faults.crashes);
    EXPECT_EQ(plain.faults.retries, fast.faults.retries);
    EXPECT_EQ(plain.faults.failovers, fast.faults.failovers);
    EXPECT_EQ(plain.faults.faultSheds, fast.faults.faultSheds);
    EXPECT_EQ(plain.faults.starved, fast.faults.starved);
    ASSERT_EQ(plain.devices.size(), fast.devices.size());
    for (std::size_t d = 0; d < plain.devices.size(); ++d)
        EXPECT_EQ(plain.devices[d].dispatched, fast.devices[d].dispatched);

    TraceRecorder real_rec;
    multidnn::SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.cluster.overlapInitWithExec = true;
    cfg.faults = plan;
    cfg.arrivalAdmission = &gate;
    cfg.trace = &real_rec;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);

    // The schedule actually bit: faults, retries, and verdicts all
    // appear in the stream being compared.
    ASSERT_GT(real.faults.retries, 0);
    auto fast_text = textOf(fast_rec, Stream::Serving);
    ASSERT_NE(fast_text.find("fault_injected"), std::string::npos);
    ASSERT_NE(fast_text.find("retry_scheduled"), std::string::npos);
    ASSERT_NE(fast_text.find("admission_verdict"), std::string::npos);
    ASSERT_NE(fast_text.find("device_health"), std::string::npos);

    EXPECT_EQ(fast_text, textOf(real_rec, Stream::Serving));
    EXPECT_EQ(real.runs.size(), fast.stats.completed());
}

} // namespace
} // namespace flashmem::obs
