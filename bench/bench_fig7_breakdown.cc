/**
 * @file
 * Figure 7 reproduction: ablation of FlashMem's optimizations for ViT,
 * SD-UNet, and GPT-Neo-1.3B against the SmartMem baseline — the
 * incremental speedup and memory reduction of the OPG solver, adaptive
 * fusion, and kernel rewriting.
 */

#include "bench/harness.hh"

#include "common/logging.hh"

int
main()
{
    using namespace flashmem;
    using namespace flashmem::bench;

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
            auto r = fm.runOnce(g);
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
    return ok ? 0 : 1;
}
