/**
 * @file
 * Figure 6 reproduction: memory usage over time for a multi-model
 * workload (DepthAnything, ViT, SD-UNet, Whisper — plus GPT-Neo-1.3B
 * under FlashMem) with interleaved iterations. MNN spikes to multiple
 * GB on every model initialization; FlashMem's streamed execution stays
 * near its 1.5 GB configuration.
 *
 * Additionally compares the event-driven scheduler's policies (FIFO,
 * SJF, priority-with-aging, memory-aware admission with on-device
 * re-planning) on the same queue: makespan, mean request latency
 * (end - arrival, queueing delay included) and peak memory per policy.
 * With a JSON-path argument the per-policy numbers, plus the MNN
 * preload drain's as policy "mnn-preload", are written for
 * BENCH_table4.json's fig6_policies section (tools/run_benchmarks.sh).
 *
 * `--determinism`: instead of the figure, run the memory-aware
 * re-planning scheduler twice (one FlashMem each) and fail unless the
 * outcomes (timelines, re-plan counts, memory) are identical — the
 * ctest-registered scheduler determinism check.
 *
 * `--trace PATH`: run the five-model queue under the memory-aware
 * re-planning policy with a TraceRecorder attached and export
 * Chrome/Perfetto trace-event JSON (ui.perfetto.dev) — the planner
 * track carries the replan and per-window solver events this bench
 * uniquely exercises — plus the text export next to it (same stem,
 * `.trace`), the input of tools/trace_diff.py.
 */

#include "bench/harness.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "multidnn/scheduler.hh"
#include "obs/trace.hh"

namespace {

using namespace flashmem;
using namespace flashmem::bench;

/** Outcome equality at full resolution (timeline + counters). */
bool
outcomesIdentical(const multidnn::ScheduleOutcome &a,
                  const multidnn::ScheduleOutcome &b)
{
    if (a.makespan != b.makespan || a.peakMemory != b.peakMemory ||
        a.replans != b.replans || a.runs.size() != b.runs.size())
        return false;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        const auto &x = a.runs[i];
        const auto &y = b.runs[i];
        if (x.model != y.model || x.arrival != y.arrival ||
            x.start != y.start || x.end != y.end ||
            x.peakMemory != y.peakMemory)
            return false;
    }
    return true;
}

/**
 * Scheduler determinism: the same queue under the memory-aware
 * re-planning policy must produce bit-identical outcomes on separate
 * FlashMems.
 */
int
runDeterminismCheck()
{
    auto dev = gpusim::DeviceProfile::onePlus12();
    auto queue = multidnn::interleavedWorkload(
        {ModelId::ResNet50, ModelId::GPTNeoS, ModelId::DepthAnythingS},
        /*iterations=*/2, /*gap=*/milliseconds(10), /*seed=*/17);

    auto run_arm = [&]() {
        core::FlashMem fm(dev);
        multidnn::SchedulerConfig cfg;
        // Tight shared budget: admission shrinks per-model shares, so
        // every distinct model re-plans at least once.
        cfg.capacityBudget = mib(768);
        multidnn::EventScheduler sched(fm, cfg);
        return sched.run(queue, multidnn::MemoryAwarePolicy{});
    };

    auto t1 = run_arm();
    auto t2 = run_arm();
    bool identical = outcomesIdentical(t1, t2);
    bool replanned = t1.replans > 0;
    std::cout << "scheduler determinism (two runs): "
              << (identical ? "identical" : "DIVERGED") << ", "
              << t1.replans << " re-plans ("
              << formatDouble(t1.replanSeconds, 3) << " s)\n";
    std::cout << "re-planning exercised: "
              << (replanned ? "yes" : "NO") << "\n";
    return identical && replanned ? 0 : 1;
}

/** `--trace PATH`: the five-model memory-aware run, traced and
 * exported for ui.perfetto.dev (planner + device + request tracks). */
int
runTraceExport(const char *path)
{
    auto dev = gpusim::DeviceProfile::onePlus12();
    core::FlashMemOptions opt;
    opt.opg.mPeak = mib(1024);
    opt.opg.lambda = 0.5;
    core::FlashMem fm(dev, opt);

    obs::TraceRecorder rec;
    multidnn::SchedulerConfig cfg;
    cfg.capacityBudget = gib(1.5);
    cfg.trace = &rec;
    multidnn::EventScheduler sched(fm, cfg);
    auto queue = multidnn::interleavedWorkload(
        {ModelId::DepthAnythingS, ModelId::ViT, ModelId::SDUNet,
         ModelId::WhisperMedium, ModelId::GPTNeo1_3B},
        /*iterations=*/3, /*gap=*/0, /*seed=*/99);
    auto out = sched.run(queue, multidnn::MemoryAwarePolicy{});

    std::string text_path;
    bool ok = writeTraceExports(rec, path, &text_path);
    std::size_t solver_windows = 0;
    for (const auto &e : rec.events())
        solver_windows += e.kind == obs::EventKind::SolverWindow;
    std::cout << "perfetto trace: " << queue.size()
              << " requests, " << out.replans << " re-plans, "
              << solver_windows << " solver windows, " << rec.size()
              << " events -> " << path << " (text: " << text_path
              << ")\n";
    // The export must carry the planner-side events this bench is
    // the canonical producer of.
    ok &= out.replans > 0 && solver_windows > 0;
    if (!ok)
        std::cerr << "trace export failed shape check or write\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace flashmem;
    using namespace flashmem::bench;

    if (argc > 1 && std::strcmp(argv[1], "--determinism") == 0)
        return runDeterminismCheck();
    if (argc > 2 && std::strcmp(argv[1], "--trace") == 0)
        return runTraceExport(argv[2]);

    printHeading(std::cout,
                 "Figure 6: multi-model FIFO memory behaviour");

    auto dev = gpusim::DeviceProfile::onePlus12();

    // FlashMem runs the full five-model mix (paper Figure 6a).
    auto flash_queue = multidnn::interleavedWorkload(
        {ModelId::DepthAnythingS, ModelId::ViT, ModelId::SDUNet,
         ModelId::WhisperMedium, ModelId::GPTNeo1_3B},
        /*iterations=*/3, /*gap=*/0, /*seed=*/99);
    // MNN cannot hold GPT-Neo-1.3B at all (paper Figure 6b drops it).
    auto mnn_queue = multidnn::interleavedWorkload(
        {ModelId::DepthAnythingS, ModelId::ViT, ModelId::SDUNet,
         ModelId::WhisperMedium},
        /*iterations=*/3, /*gap=*/0, /*seed=*/99);
    // Interactive models outrank the batch-y generators under the
    // priority policy; aging keeps the low-priority ones moving.
    multidnn::assignPriorities(flash_queue,
                               {{ModelId::DepthAnythingS, 3},
                                {ModelId::ViT, 2},
                                {ModelId::WhisperMedium, 1},
                                {ModelId::SDUNet, 0},
                                {ModelId::GPTNeo1_3B, 0}});

    // Latency-priority configuration: paper uses a manually selected
    // 1.5 GB constraint for this study.
    core::FlashMemOptions opt;
    opt.opg.mPeak = mib(1024);
    opt.opg.lambda = 0.5;
    core::FlashMem fm(dev, opt);

    multidnn::SchedulerConfig cfg;
    // Shared capacity for memory-aware admission: five co-resident
    // models must fit where the paper's study allowed ~1.5 GB.
    cfg.capacityBudget = gib(1.5);
    multidnn::EventScheduler sched(fm, cfg);

    auto flash = sched.run(flash_queue, multidnn::FifoPolicy{});
    auto mnn = multidnn::EventScheduler::runPreload(
        FrameworkId::MNN, dev, mnn_queue, multidnn::FifoPolicy{});

    std::cout << "FlashMem (5 models x 3 iterations):\n";
    metrics::renderAsciiChart(
        std::cout,
        {{"FlashMem total memory", '#',
          metrics::sampleTrace(flash.trace, 76)}},
        76, 10);
    std::cout << "\nMNN (4 models x 3 iterations — GPTN-1.3B "
                 "unsupported):\n";
    metrics::renderAsciiChart(
        std::cout,
        {{"MNN total memory", '.', metrics::sampleTrace(mnn.trace,
                                                        76)}},
        76, 10);

    Table t({"Strategy", "Models", "Makespan", "Mean latency",
             "Peak mem", "Avg mem"});
    t.addRow({"FlashMem", "5 (incl. GPTN-1.3B)",
              formatMs(flash.makespan), formatMs(flash.meanLatency()),
              formatBytes(flash.peakMemory),
              formatBytes(static_cast<Bytes>(flash.avgMemoryBytes))});
    t.addRow({"MNN", "4", formatMs(mnn.makespan),
              formatMs(mnn.meanLatency()), formatBytes(mnn.peakMemory),
              formatBytes(static_cast<Bytes>(mnn.avgMemoryBytes))});
    t.print(std::cout);

    // ------------------------------------------------------------------
    // Per-policy comparison on the FlashMem queue. The scheduler reuses
    // compiled artifacts across policies, so only the first run pays
    // the offline stage; memory-aware admission re-plans on top.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Event-driven scheduler: policy comparison");
    std::ostringstream json;
    json << "{\n  \"fig6_policies\": [\n";
    auto jsonRow = [&](const std::string &policy,
                       const multidnn::ScheduleOutcome &o) {
        json << "    {\"policy\": \"" << policy
             << "\", \"makespan_ms\": " << toMilliseconds(o.makespan)
             << ", \"mean_latency_ms\": "
             << toMilliseconds(o.meanLatency())
             << ", \"mean_queue_ms\": "
             << toMilliseconds(o.meanQueueDelay())
             << ", \"peak_mem_mb\": " << toMiB(o.peakMemory)
             << ", \"replans\": " << o.replans << "}";
    };
    Table pt({"Policy", "Makespan", "Mean latency", "Mean queue",
              "Peak mem", "Re-plans"});
    const auto &kinds = multidnn::allPolicyKinds();
    std::vector<multidnn::ScheduleOutcome> outcomes;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        auto policy = multidnn::makePolicy(kinds[i]);
        auto o = sched.run(flash_queue, *policy);
        pt.addRow({o.policy, formatMs(o.makespan),
                   formatMs(o.meanLatency()),
                   formatMs(o.meanQueueDelay()),
                   formatBytes(o.peakMemory),
                   std::to_string(o.replans)});
        jsonRow(o.policy, o);
        json << ",\n";
        outcomes.push_back(std::move(o));
    }
    pt.print(std::cout);
    // The preload path's FIFO drain of the MNN queue, gated like the
    // FlashMem policies.
    jsonRow("mnn-preload", mnn);
    json << "\n  ]\n}\n";

    bool ok = true;
    // FlashMem stays under the configured ceiling (paper: 1.5 GB);
    // MNN spikes into multi-GB territory on a smaller model set.
    ok &= flash.peakMemory < gib(1.5);
    ok &= mnn.peakMemory > gib(2.5);
    ok &= flash.makespan < mnn.makespan;
    // The FIFO policy is the first outcome; the event-driven drain
    // must reproduce the figure run exactly.
    ok &= outcomes[0].makespan == flash.makespan;
    // Mean latency includes queueing: it can never undercut the mean
    // device-side latency.
    for (const auto &o : outcomes)
        ok &= o.meanLatency() >= o.makespan / static_cast<SimTime>(
                                     3 * o.runs.size());
    // Memory-aware admission re-planned under the shared budget and
    // did not raise the peak over plain FIFO (same dispatch order).
    const auto &maware = outcomes.back();
    ok &= maware.replans > 0;
    ok &= maware.peakMemory <= outcomes[0].peakMemory;
    std::cout << "\nShape check (FlashMem < 1.5 GB, MNN multi-GB "
                 "spikes, memory-aware re-plans, peak not above "
                 "FIFO): "
              << (ok ? "PASS" : "FAIL") << "\n";

    if (argc > 1) {
        std::ofstream out(argv[1]);
        out << json.str();
        if (out.good()) {
            std::cout << "wrote " << argv[1] << "\n";
        } else {
            std::cerr << "failed to write " << argv[1] << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
