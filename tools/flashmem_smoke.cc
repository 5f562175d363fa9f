/**
 * @file
 * Developer utility: compile + run each zoo model under FlashMem on the
 * OnePlus 12 profile and print integrated latency / memory — a quick
 * sanity check of the end-to-end pipeline against Tables 7/8.
 */

#include <iostream>

#include "common/strutil.hh"
#include "common/table.hh"
#include "core/flashmem.hh"
#include "models/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace flashmem;

    if (argc > 1) {
        std::cerr << "usage: " << argv[0] << " (takes no arguments)\n";
        return 2;
    }
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());

    Table t({"Model", "Integrated", "Init", "Exec", "Stall", "Peak",
             "Avg", "Overlap%", "FusedLayers", "Windows", "Solve(s)",
             "MemoHits"});
    for (const auto &spec : models::modelZoo()) {
        auto g = models::buildModel(spec.id);
        auto compiled = fm.compile(g);
        gpusim::GpuSimulator sim(fm.device());
        auto r = fm.execute(sim, compiled);
        t.addRow({spec.abbr, formatMs(r.integratedLatency()),
                  formatMs(r.initLatency()), formatMs(r.execLatency()),
                  formatMs(r.stallTime), formatBytes(r.peakMemory),
                  formatBytes(static_cast<Bytes>(r.avgMemoryBytes)),
                  formatDouble(100 * compiled.overlapFraction(), 1),
                  std::to_string(compiled.fusedGraph.layerCount()),
                  std::to_string(compiled.stats.windows),
                  formatDouble(compiled.stats.solveSeconds, 2),
                  std::to_string(compiled.planMemoHits)});
    }
    t.print(std::cout);
    return 0;
}
