/**
 * @file
 * Figure 9 reproduction: FlashMem against the two naive overlap
 * policies — Always-Next Loading (just-in-time, capacity-oblivious)
 * and Same-Op-Type Prefetching (partially capacity-aware) — on the
 * paper's six-model subset.
 */

#include "bench/harness.hh"

#include "core/runtime.hh"

int
main()
{
    using namespace flashmem;
    using namespace flashmem::bench;

    printHeading(std::cout,
                 "Figure 9: naive overlap strategies vs FlashMem");

    auto dev = gpusim::DeviceProfile::onePlus12();
    core::FlashMem fm(dev);
    const ModelId targets[] = {ModelId::GPTNeo1_3B, ModelId::ResNet50,
                               ModelId::SAM2,       ModelId::DeepViT,
                               ModelId::SDUNet,
                               ModelId::DepthAnythingL};

    Table t({"Model", "FlashMem", "Same-Op-Type", "vs Ours",
             "Always-Next", "vs Ours"});
    metrics::RatioSummary same_ratios, always_ratios;
    bool ok = true;
    for (auto id : targets) {
        const auto &g = cachedModel(id);
        gpusim::GpuSimulator fsim(dev);
        auto flash = fm.execute(fsim, cachedCompiled(fm, id));

        core::RunConfig naive_cfg;
        naive_cfg.branchFreeKernels = false;

        gpusim::GpuSimulator s1(dev);
        auto same_plan = baselines::sameOpTypePlan(g);
        auto same = core::StreamingRuntime(g, same_plan)
                        .run(s1, naive_cfg);
        gpusim::GpuSimulator s2(dev);
        auto next_plan = baselines::alwaysNextPlan(g);
        auto always = core::StreamingRuntime(g, next_plan)
                          .run(s2, naive_cfg);

        double same_r =
            static_cast<double>(same.integratedLatency()) /
            static_cast<double>(flash.integratedLatency());
        double always_r =
            static_cast<double>(always.integratedLatency()) /
            static_cast<double>(flash.integratedLatency());
        same_ratios.add(same_r);
        always_ratios.add(always_r);
        t.addRow({models::modelSpec(id).abbr,
                  formatMs(flash.integratedLatency()),
                  formatMs(same.integratedLatency()),
                  formatRatio(same_r),
                  formatMs(always.integratedLatency()),
                  formatRatio(always_r)});
        ok &= always_r > 1.0;        // Always-Next loses everywhere
        ok &= always_r > same_r;     // type-matching beats pure JIT
    }
    t.print(std::cout);

    // FlashMem must beat Same-Op-Type in the aggregate (individual
    // compute-bound models can come close).
    ok &= same_ratios.geomean() > 1.0;
    ok &= always_ratios.geomean() > same_ratios.geomean();

    std::cout << "\nWorst case measured: Always-Next "
              << formatRatio(always_ratios.max()) << ", Same-Op-Type "
              << formatRatio(same_ratios.max())
              << " (paper: up to 4.3x / 2.4x on-device; the simulator "
                 "reproduces the ordering with damped magnitude)\n";
    std::cout << "Shape check: " << (ok ? "PASS" : "FAIL") << "\n";
    return ok ? 0 : 1;
}
