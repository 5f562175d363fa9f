/**
 * @file
 * Quickstart: compile and run one model under FlashMem.
 *
 * Demonstrates the public API end to end: pick a device profile, build
 * a model graph, compile it (fusion + LC-OPG overlap planning + kernel
 * rewriting), execute on a simulated device, and inspect the results —
 * including a look at one generated pipelined kernel.
 *
 * Usage: quickstart [model-abbreviation]   (default: ViT)
 */

#include <iostream>

#include "common/strutil.hh"
#include "core/flashmem.hh"
#include "models/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace flashmem;

    // 1. Choose a device and a model.
    auto device = gpusim::DeviceProfile::onePlus12();
    auto model_id = models::modelIdFromAbbr(argc > 1 ? argv[1] : "ViT");
    auto graph = models::buildModel(model_id);

    std::cout << "Model: " << graph.name() << " ("
              << formatDouble(graph.totalParams() / 1e6, 1) << "M params, "
              << graph.layerCount() << " lowered layers, "
              << formatBytes(graph.totalWeightBytes()) << " weights)\n"
              << "Device: " << device.name << " / " << device.gpu << "\n\n";

    // 2. Offline stage: fuse, plan, rewrite.
    core::FlashMem flashmem(device);
    auto compiled = flashmem.compile(graph);

    std::cout << "Offline stage:\n"
              << "  fused layers:      " << compiled.fusedGraph.layerCount()
              << " (from " << graph.layerCount() << ")\n"
              << "  overlap fraction:  "
              << formatDouble(100.0 * compiled.overlapFraction(), 1)
              << "% of weight bytes streamed\n"
              << "  preload set |W|:   "
              << formatBytes(compiled.plan.preloadBytes(compiled.fusedGraph))
              << "\n"
              << "  solver:            " << compiled.stats.windows
              << " windows, "
              << formatDouble(compiled.stats.solveSeconds, 2)
              << " s solve time\n\n";

    // 3. Peek at one rewritten kernel (Figure 5b style).
    for (const auto &k : compiled.kernels) {
        if (k.tmpl == core::KernelTemplate::PipelinedBranchFree) {
            std::cout << "Example rewritten kernel (layer " << k.layer
                      << ", inline load " << formatBytes(k.inlineLoadBytes)
                      << "):\n" << k.source() << "\n";
            break;
        }
    }

    // 4. Online stage: execute on the simulated device.
    gpusim::GpuSimulator sim(device);
    auto result = flashmem.execute(sim, compiled);

    std::cout << "Execution:\n"
              << "  integrated latency: "
              << formatMs(result.integratedLatency()) << "\n"
              << "  peak memory:        " << formatBytes(result.peakMemory)
              << "\n"
              << "  average memory:     "
              << formatBytes(static_cast<Bytes>(result.avgMemoryBytes))
              << "\n"
              << "  energy:             "
              << formatDouble(sim.energyJoules(result.end), 1) << " J\n";
    return 0;
}
