/**
 * @file
 * Figure 7 reproduction: ablation of FlashMem's optimizations for ViT,
 * SD-UNet, and GPT-Neo-1.3B against the SmartMem baseline — the
 * incremental speedup and memory reduction of the OPG solver, adaptive
 * fusion, and kernel rewriting.
 *
 * Second section (also run standalone via --phases-only, the mode
 * registered with ctest): the LC-OPG per-phase breakdown — process /
 * stage / build / solve / merge — over the Table-4 model set, planned
 * with threads = 1, 4, and hardware_concurrency. Checks that the three
 * plans are byte-identical per model (the parallel pipeline's
 * determinism contract) and that every phase is accounted for.
 */

#include "bench/harness.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "profiler/capacity.hh"

namespace {

/** Per-phase breakdown + cross-thread-count determinism check. */
bool
runPhaseBreakdown()
{
    using namespace flashmem;
    using namespace flashmem::bench;

    printHeading(std::cout,
                 "Figure 7b: LC-OPG phase breakdown (serial vs "
                 "parallel), Table-4 model set");

    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    const int hw = ThreadPool::defaultThreadCount();
    std::vector<int> arms = {1, 4};
    if (hw != 1 && hw != 4)
        arms.push_back(hw);

    Table t({"Model", "Thr", "Process (s)", "Stage (s)", "Build (s)",
             "Solve wall (s)", "Solve cpu (s)", "Merge (s)",
             "Identical"});
    bool ok = true;
    for (const auto &m : table4ModelSet()) {
        std::string ref_plan;
        for (int threads : arms) {
            core::OpgParams params;
            params.solverDecisionsPerWindow = 20000;
            params.restartConflictBase = 1024;
            params.parallel.threads = threads;
            core::LcOpgPlanner planner(*m.graph, cap, km, params);
            core::PlanStats stats;
            auto plan = planner.plan(&stats);
            ok &= plan.validate(*m.graph, false);

            auto s = plan.serialize();
            bool same = ref_plan.empty() || s == ref_plan;
            if (ref_plan.empty())
                ref_plan = std::move(s);
            ok &= same;

            t.addRow({m.name, std::to_string(threads),
                      formatDouble(stats.processNodesSeconds, 4),
                      formatDouble(stats.stageSeconds, 4),
                      formatDouble(stats.buildModelSeconds, 4),
                      formatDouble(stats.solveSeconds, 3),
                      formatDouble(stats.solveCpuSeconds, 3),
                      formatDouble(stats.mergeSeconds, 4),
                      same ? "yes" : "NO"});
        }
        t.addRule();
    }
    t.print(std::cout);
    std::cout << "\nDeterminism (plans byte-identical across threads="
              << "1/4/" << hw << "): " << (ok ? "PASS" : "FAIL")
              << "\n";
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace flashmem;
    using namespace flashmem::bench;

    // ctest runs only the fast deterministic phase-breakdown section.
    if (argc > 1 && std::strcmp(argv[1], "--phases-only") == 0)
        return runPhaseBreakdown() ? 0 : 1;

    printHeading(std::cout, "Figure 7: optimization breakdown over "
                            "SmartMem (speedup / memory reduction)");

    auto dev = gpusim::DeviceProfile::onePlus12();
    const ModelId targets[] = {ModelId::ViT, ModelId::SDUNet,
                               ModelId::GPTNeo1_3B};

    // Ablation ladder.
    core::FlashMemOptions opg_only;
    opg_only.adaptiveFusion = false;
    opg_only.kernelRewriting = false;
    core::FlashMemOptions with_fusion = opg_only;
    with_fusion.adaptiveFusion = true;
    core::FlashMemOptions full;

    struct Step
    {
        const char *name;
        core::FlashMemOptions opt;
    };
    const Step steps[] = {{"+OPG-Solver", opg_only},
                          {"+Adaptive Fusion", with_fusion},
                          {"+Kernel Rewriting", full}};

    Table t({"Model", "Step", "Integrated", "Speedup vs SMem",
             "Avg mem", "Reduction vs SMem"});
    bool ok = true;
    for (auto id : targets) {
        const auto &g = cachedModel(id);
        auto smem = runBaseline(FrameworkId::SmartMem, g, dev);
        FM_ASSERT(smem.has_value(), "SmartMem must support fig-7 set");
        double smem_lat =
            static_cast<double>(smem->integratedLatency());
        double smem_mem = smem->avgMemoryBytes;

        double prev_speedup = 0.0;
        for (const auto &step : steps) {
            core::FlashMem fm(dev, step.opt);
            auto r = runFlash(fm, g);
            double speedup =
                smem_lat / static_cast<double>(r.integratedLatency());
            double reduction = smem_mem / r.avgMemoryBytes;
            t.addRow({models::modelSpec(id).abbr, step.name,
                      formatMs(r.integratedLatency()),
                      formatRatio(speedup),
                      formatBytes(
                          static_cast<Bytes>(r.avgMemoryBytes)),
                      formatRatio(reduction)});
            // Paper shape: OPG alone already delivers multi-x gains;
            // later steps never regress materially.
            if (step.name == std::string("+OPG-Solver"))
                ok &= speedup > 3.0;
            else
                ok &= speedup > 0.95 * prev_speedup;
            prev_speedup = speedup;
            ok &= reduction > 1.5;
        }
        t.addRule();
    }
    t.print(std::cout);

    std::cout << "\nPaper reference: OPG-Solver 5.3-8.1x, +Fusion up to "
                 "5.1x extra, +Rewriting up to 2.55x extra; memory "
                 "2.1-3.8x from OPG.\n";
    std::cout << "Shape check: " << (ok ? "PASS" : "FAIL") << "\n";

    ok &= runPhaseBreakdown();
    return ok ? 0 : 1;
}
