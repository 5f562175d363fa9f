/**
 * @file
 * User-facing translator chain (paper Section 2.2): speech recognition
 * (Whisper) feeds a language model (GPT-Neo 1.3B) whose output prompts
 * image generation (Stable-Diffusion UNet). None of the three models is
 * invoked many times in succession — exactly the FIFO multi-DNN regime
 * FlashMem targets.
 *
 * Note the memory: the three models together hold ~4.8 GB of fp16
 * weights; preloading them simultaneously is infeasible, and serial
 * cold-start preloading pays the full load+transform price per model.
 */

#include <iostream>

#include "common/strutil.hh"
#include "common/table.hh"
#include "multidnn/scheduler.hh"

int
main()
{
    using namespace flashmem;
    using models::ModelId;

    auto device = gpusim::DeviceProfile::onePlus12();
    auto chain = multidnn::chainWorkload(
        {ModelId::WhisperMedium, ModelId::GPTNeo1_3B, ModelId::SDUNet});

    Bytes total_weights = 0;
    for (const auto &req : chain)
        total_weights +=
            models::buildModel(req.model).totalWeightBytes();
    std::cout << "Speech -> text -> image chain on " << device.name
              << " (" << formatBytes(total_weights)
              << " of weights across 3 models)\n\n";

    core::FlashMem flashmem(device);
    auto flash =
        multidnn::EventScheduler(flashmem).run(chain, multidnn::FifoPolicy{});
    // SmartMem is the strongest preloading baseline that supports all
    // three models.
    auto smem = multidnn::EventScheduler::runPreload(
        baselines::FrameworkId::SmartMem, device, chain,
        multidnn::FifoPolicy{});

    // Per-stage request latency (end - arrival): with gap 0 the later
    // stages queue behind the earlier ones, and that wait is part of
    // what the user experiences.
    Table t({"Stage", "FlashMem", "SmartMem"});
    for (std::size_t i = 0; i < chain.size(); ++i) {
        t.addRow({flash.runs[i].model,
                  formatMs(flash.runs[i].requestLatency()),
                  formatMs(smem.runs[i].requestLatency())});
    }
    t.addRule();
    t.addRow({"end-to-end", formatMs(flash.makespan),
              formatMs(smem.makespan)});
    t.addRow({"peak memory", formatBytes(flash.peakMemory),
              formatBytes(smem.peakMemory)});
    t.addRow({"energy", formatDouble(flash.energyJoules, 1) + " J",
              formatDouble(smem.energyJoules, 1) + " J"});
    t.print(std::cout);

    std::cout << "\nChain speedup over SmartMem: "
              << formatRatio(static_cast<double>(smem.makespan) /
                             static_cast<double>(flash.makespan))
              << "\n";
    return 0;
}
