#include "baselines/preload_framework.hh"

#include <algorithm>

#include "common/logging.hh"
#include "gpusim/texture.hh"

namespace flashmem::baselines {

using graph::OpClass;
using graph::OpKind;
using gpusim::MemKind;

PreloadFramework::PreloadFramework(FrameworkId id,
                                   const gpusim::DeviceProfile &dev)
    : traits_(frameworkTraits(id)), dev_(dev), kernel_model_(dev)
{
}

SupportStatus
PreloadFramework::supports(const graph::Graph &g) const
{
    for (const auto &name : traits_.unsupportedModels) {
        if (g.name() == name)
            return SupportStatus::MissingOperator;
    }
    bool scan_ops = !traits_.supportsLayerNormGpu ||
                    !traits_.supportsGroupNormGpu ||
                    !traits_.supportsSequenceModels ||
                    !traits_.supportsUpsample;
    if (scan_ops) {
        for (const auto &n : g.nodes()) {
            for (auto kind : n.fusedKinds) {
                if (!traits_.supportsLayerNormGpu &&
                    (kind == OpKind::LayerNorm ||
                     kind == OpKind::RMSNorm))
                    return SupportStatus::MissingOperator;
                if (!traits_.supportsGroupNormGpu &&
                    kind == OpKind::GroupNorm)
                    return SupportStatus::MissingOperator;
                if (!traits_.supportsSequenceModels &&
                    kind == OpKind::Embedding)
                    return SupportStatus::MissingOperator;
                if (!traits_.supportsUpsample &&
                    kind == OpKind::Upsample)
                    return SupportStatus::MissingOperator;
            }
        }
    }
    if (traits_.maxModelBytes > 0 &&
        g.totalWeightBytes() > traits_.maxModelBytes)
        return SupportStatus::ModelTooLarge;
    return SupportStatus::Supported;
}

SimTime
PreloadFramework::kernelLatency(const graph::Graph &g,
                                graph::NodeId l) const
{
    auto spec = gpusim::kernelSpecFor(g, l, !traits_.buffersOnly);
    if (traits_.fp32Storage)
        spec.precision = Precision::FP32;
    SimTime base = kernel_model_.baseLatency(spec);

    double factor = traits_.execSlowdown;
    if (spec.cls() == OpClass::Movement) {
        factor *= traits_.movementCostFactor;
        // Runtime layout conversions round-trip through the
        // framework's (often CPU-assisted) conversion path.
        if (traits_.movementCostFactor >= 1.0) {
            base += traits_.runtimeLayoutBw.transferTime(
                spec.totalBytes());
        }
    }
    return static_cast<SimTime>(static_cast<double>(base) * factor);
}

core::RunResult
PreloadFramework::run(gpusim::GpuSimulator &sim, const graph::Graph &g,
                      SimTime arrival) const
{
    auto &mem = sim.memory();
    core::RunResult result;
    result.model = g.name();
    result.arrival = arrival;
    result.start = arrival;

    mem.alloc(MemKind::Scratch, traits_.baseOverhead, arrival);

    // ---- Init: load everything from disk into unified memory. --------
    Bytes weight_bytes = g.totalWeightBytes();
    Bytes disk_bytes = traits_.fp32Storage ? weight_bytes * 2
                                           : weight_bytes;
    auto load = sim.disk().transfer(arrival, disk_bytes);
    mem.alloc(MemKind::UnifiedWeights, disk_bytes, load.start);

    // Staging residency (fp32 widening, repack buffers) held through
    // the whole transform phase.
    auto staging =
        static_cast<Bytes>(traits_.stagingFactor *
                           static_cast<double>(weight_bytes));
    SimTime init_done = load.end;

    if (!traits_.buffersOnly) {
        if (staging > 0)
            mem.alloc(MemKind::Scratch, staging, load.end);
        // Dedicated per-tensor transform dispatches, serialized on the
        // GPU queue (CPU repack + upload + layout kernel per tensor).
        // Each tensor's unified-memory copy is released as soon as its
        // texture version exists.
        SimTime cursor = load.end;
        double disk_scale = traits_.fp32Storage ? 2.0 : 1.0;
        for (const auto &w : g.weights()) {
            auto cost = gpusim::dedicatedTransformCost(
                dev_, w.bytes(), traits_.transformBw,
                traits_.transformPasses);
            auto iv = sim.computeQueue().reserve(cursor, cost.time);
            cursor = iv.end;
            mem.free(MemKind::UnifiedWeights,
                     static_cast<Bytes>(disk_scale *
                                        static_cast<double>(w.bytes())),
                     cursor);
            mem.alloc(MemKind::TextureWeights, w.bytes(), cursor);
        }
        init_done = cursor;
        if (staging > 0)
            mem.free(MemKind::Scratch, staging, init_done);
    }
    result.initDone = init_done;

    // ---- Exec: kernel-by-kernel with resident weights. ----------------
    std::vector<graph::NodeId> last_consumer(g.layerCount(),
                                             graph::kInvalidNode);
    for (const auto &n : g.nodes()) {
        for (auto in : n.inputs)
            last_consumer[in] = std::max(last_consumer[in], n.id);
    }

    SimTime prev_end = init_done;
    for (graph::NodeId l = 0;
         l < static_cast<graph::NodeId>(g.layerCount()); ++l) {
        const auto &node = g.node(l);
        auto iv = sim.computeQueue().reserve(prev_end,
                                             kernelLatency(g, l));
        ++result.kernels;
        mem.alloc(MemKind::Activations, node.output.bytes(), iv.start);
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            auto in = node.inputs[i];
            if (std::find(node.inputs.begin(), node.inputs.begin() + i,
                          in) != node.inputs.begin() + i)
                continue;
            if (last_consumer[in] == l) {
                mem.free(MemKind::Activations,
                         g.node(in).output.bytes(), iv.end);
            }
        }
        prev_end = iv.end;
    }

    // Model unload: everything retired.
    for (const auto &n : g.nodes()) {
        if (last_consumer[n.id] == graph::kInvalidNode)
            mem.free(MemKind::Activations, n.output.bytes(), prev_end);
    }
    if (!traits_.buffersOnly) {
        mem.free(MemKind::TextureWeights, weight_bytes, prev_end);
    } else {
        mem.free(MemKind::UnifiedWeights, disk_bytes, prev_end);
    }
    mem.free(MemKind::Scratch, traits_.baseOverhead, prev_end);

    result.end = prev_end;
    result.peakMemory = mem.peakOver(result.start, result.end);
    result.avgMemoryBytes = mem.averageBytes(result.start, result.end);
    result.oom = dev_.appMemoryBudget > 0 &&
                 result.peakMemory > dev_.appMemoryBudget;
    return result;
}

} // namespace flashmem::baselines
