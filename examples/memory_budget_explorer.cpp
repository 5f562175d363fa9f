/**
 * @file
 * Memory/latency trade-off explorer (paper Section 3.2 "Hyperparameters
 * Considerations" and Figure 8): sweeps the peak-memory bound M_peak and
 * the preload weight lambda, showing how the overlap plan trades
 * integrated latency against average memory for a chosen model.
 *
 * Usage: memory_budget_explorer [model-abbreviation]  (default GPTN-1.3B)
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

    auto device = gpusim::DeviceProfile::onePlus12();
    auto model_id =
        models::modelIdFromAbbr(argc > 1 ? argv[1] : "GPTN-1.3B");
    auto graph = models::buildModel(model_id);

    std::cout << "Memory-budget sweep for " << graph.name() << " on "
              << device.name << "\n\n";

    Table t({"M_peak", "lambda", "Overlap%", "Preload", "Integrated",
             "Exec", "Avg mem", "Peak mem"});
    for (Bytes mpeak : {mib(64), mib(128), mib(256), mib(500),
                        mib(1024)}) {
        for (double lambda : {0.5, 0.9}) {
            core::FlashMemOptions opt;
            opt.opg.mPeak = mpeak;
            opt.opg.lambda = lambda;
            core::FlashMem fm(device, opt);
            auto compiled = fm.compile(graph);
            gpusim::GpuSimulator sim(device);
            auto r = fm.execute(sim, compiled);
            t.addRow({formatBytes(mpeak), formatDouble(lambda, 1),
                      formatDouble(100 * compiled.overlapFraction(), 1),
                      formatBytes(compiled.plan.preloadBytes(
                          compiled.fusedGraph)),
                      formatMs(r.integratedLatency()),
                      formatMs(r.execLatency()),
                      formatBytes(
                          static_cast<Bytes>(r.avgMemoryBytes)),
                      formatBytes(r.peakMemory)});
        }
    }
    t.print(std::cout);
    std::cout << "\nLarger M_peak admits more streaming in flight; "
                 "higher lambda penalizes preloading harder.\n";
    return 0;
}
