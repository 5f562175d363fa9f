/**
 * @file
 * Figure 4 reproduction: the profiling + XGBoost pipeline. Kernels from
 * multiple models are profiled under synthetic extra-I/O workloads
 * (with measurement noise), the gradient-boosted latency regressor is
 * trained, and its held-out accuracy plus derived per-class load
 * capacities are reported.
 */

#include "bench/harness.hh"

#include "profiler/capacity.hh"
#include "profiler/features.hh"

int
main()
{
    using namespace flashmem;
    using namespace flashmem::bench;
    using graph::OpClass;

    printHeading(std::cout,
                 "Figure 4: kernel profiling + GBT latency model");

    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::LearnedCapacityProvider learned(km);

    // Paper: "profiling operators from more than ten models"; we train
    // on a representative architectural mix (attention, conv, DPT,
    // UNet, speech) covering all operator classes.
    std::vector<const graph::Graph *> graphs;
    const ModelId train_set[] = {
        ModelId::ViT,          ModelId::ResNet50,
        ModelId::GPTNeoS,      ModelId::DepthAnythingS,
        ModelId::WhisperMedium};
    for (auto id : train_set)
        graphs.push_back(&cachedModel(id));
    learned.profileAndFit(graphs);

    std::cout << "profiled samples: " << learned.sampleCount()
              << ", trees: " << learned.regressor().treeCount()
              << ", features: "
              << profiler::kernelFeatureNames().size() << "\n";
    std::cout << "held-out R^2: "
              << formatDouble(learned.holdoutR2(), 4) << "\n\n";

    // Per-class capacity summary on an unseen model (DeepViT).
    profiler::AnalyticCapacityProvider analytic(km);
    const auto &g = cachedModel(ModelId::DeepViT);
    Table t({"Class", "layers", "learned cap (MB, mean)",
             "analytic cap (MB, mean)"});
    std::map<OpClass, std::pair<double, int>> learned_sum, analytic_sum;
    for (const auto &n : g.nodes()) {
        auto spec = gpusim::kernelSpecFor(g, n.id, true);
        spec.pipelined = true;
        auto cls = spec.cls();
        learned_sum[cls].first += toMiB(learned.capacityBytes(spec));
        analytic_sum[cls].first += toMiB(analytic.capacityBytes(spec));
        ++learned_sum[cls].second;
    }
    bool ok = true;
    for (auto cls : {OpClass::Reusable, OpClass::Elemental,
                     OpClass::Movement, OpClass::Hierarchical}) {
        auto [lsum, n] = learned_sum[cls];
        double asum = analytic_sum[cls].first;
        t.addRow({graph::opClassName(cls), std::to_string(n),
                  formatDouble(n ? lsum / n : 0, 2),
                  formatDouble(n ? asum / n : 0, 2)});
    }
    t.print(std::cout);

    // Checks: the regressor fits well; hierarchical capacity is zero
    // under both providers; the ground-truth capacity ordering follows
    // Table 5 (reusable mean above elemental). The learned per-class
    // means track the analytic ones loosely — small-kernel inversion
    // noise is expected and harmless to planning: a window's greedy
    // hint satisfies its model whatever capacities the provider
    // reports (lc_opg.hh, "One search per window").
    ok &= learned.holdoutR2() > 0.9;
    ok &= learned_sum[OpClass::Hierarchical].first == 0.0;
    ok &= analytic_sum[OpClass::Hierarchical].first == 0.0;
    double reuse_mean = analytic_sum[OpClass::Reusable].first /
                        std::max(1, learned_sum[OpClass::Reusable]
                                        .second);
    double elem_mean = analytic_sum[OpClass::Elemental].first /
                       std::max(1, learned_sum[OpClass::Elemental]
                                       .second);
    ok &= reuse_mean > elem_mean;
    std::cout << "\nShape check (R^2 > 0.9, hierarchical = 0, "
                 "analytic class ordering): "
              << (ok ? "PASS" : "FAIL") << "\n";
    return ok ? 0 : 1;
}
