#include "gpusim/kernel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::gpusim {

using graph::OpClass;
using graph::OpKind;

KernelSpec
kernelSpecFor(const graph::Graph &g, graph::NodeId id, bool uses_texture)
{
    const auto &node = g.node(id);
    KernelSpec spec;
    spec.kind = node.kind;
    spec.macs = node.macs;
    spec.inputBytes = g.inputBytes(id);
    spec.outputBytes = node.output.bytes();
    spec.precision = g.precision();
    spec.usesTexture = uses_texture;
    for (auto wid : node.weights)
        spec.weightBytes += g.weight(wid).bytes();

    // Work-group geometry: 2D tiles for reusable kernels, wide 1D
    // groups for streaming kernels.
    std::int64_t out_elems = node.output.shape.elements();
    if (spec.cls() == OpClass::Reusable) {
        spec.gwsX = std::max<std::int64_t>(out_elems / 64, 1);
        spec.gwsY = 64;
        spec.lwsX = 8;
        spec.lwsY = 8;
    } else {
        spec.gwsX = std::max<std::int64_t>(out_elems / 4, 1);
        spec.gwsY = 1;
        spec.lwsX = 64;
        spec.lwsY = 1;
    }
    return spec;
}

SimTime
KernelModel::computeTime(const KernelSpec &spec) const
{
    if (spec.macs == 0)
        return 0;
    double eff;
    switch (spec.kind) {
      case OpKind::Conv2D:
        eff = dev_.convEfficiency;
        break;
      default:
        eff = dev_.matmulEfficiency;
        break;
    }
    double gflops = dev_.gflops(spec.precision) * eff;
    // 2 FLOPs per MAC; ns = 2 * macs / effective GFLOPS.
    return static_cast<SimTime>(2.0 * static_cast<double>(spec.macs) /
                                gflops);
}

SimTime
KernelModel::memoryTime(const KernelSpec &spec) const
{
    // Texture-path kernels fetch through the texture cache at high
    // effective bandwidth (2D locality); buffer kernels stream through
    // unified memory with poorer coalescing — the Romou-style ~3x gap.
    double bw = spec.usesTexture ? dev_.tmToSm.bytesPerSecond * 0.85
                                 : dev_.umToTm.bytesPerSecond * 0.70;
    Bytes bytes = spec.totalBytes();
    double factor = 1.0;
    switch (spec.cls()) {
      case OpClass::Hierarchical:
        // Staged reductions traverse their data multiple times with
        // workgroup synchronization between stages.
        factor = 2.2;
        break;
      case OpClass::Movement:
        factor = 2.0; // read + write of the full tensor
        break;
      default:
        break;
    }
    double ns = static_cast<double>(bytes) * factor / bw * 1e9;
    return static_cast<SimTime>(ns);
}

SimTime
KernelModel::baseLatency(const KernelSpec &spec) const
{
    return dev_.kernelLaunchOverhead +
           std::max(computeTime(spec), memoryTime(spec));
}

double
KernelModel::inlineStreamBandwidth(const KernelSpec &spec) const
{
    // In-kernel streaming shares load/store units with the kernel's own
    // traffic; the branch-free pipelined rewrite sustains a much larger
    // fraction of the DMA path than divergent interleaving.
    double fraction = spec.pipelined ? 0.55 : 0.30;
    if (spec.cls() == OpClass::Elemental) {
        // Linear element-wise kernels coalesce the extra stream well.
        fraction += 0.15;
    }
    return dev_.umToTm.bytesPerSecond * fraction;
}

SimTime
KernelModel::inlineLoadPenalty(const KernelSpec &spec,
                               Bytes extra_bytes) const
{
    if (extra_bytes == 0)
        return 0;
    double bw = inlineStreamBandwidth(spec);
    auto load_time = static_cast<SimTime>(
        static_cast<double>(extra_bytes) / bw * 1e9);

    switch (spec.cls()) {
      case OpClass::Reusable: {
        // Compute-bound kernels hide streaming under their arithmetic
        // slack; only issue overhead and the unhidden tail remain.
        // Convolution weights additionally need Winograd-style
        // repacking that cannot be overlapped (paper Section 5.2).
        double repack = spec.kind == OpKind::Conv2D ? 1.6 : 1.0;
        SimTime slack =
            std::max<SimTime>(computeTime(spec) - memoryTime(spec), 0);
        SimTime hidden = std::min<SimTime>(
            load_time, static_cast<SimTime>(0.8 * slack));
        return static_cast<SimTime>(
            repack * static_cast<double>(load_time - hidden +
                                         static_cast<SimTime>(
                                             0.15 * load_time)));
      }
      case OpClass::Elemental:
        return load_time;
      case OpClass::Hierarchical: {
        // Synchronization stages serialize against the stream, and the
        // disruption grows with the relative volume.
        double ratio = static_cast<double>(extra_bytes) /
                       std::max<Bytes>(spec.inputBytes, 1);
        return static_cast<SimTime>(2.5 * load_time +
                                    0.25 * ratio * baseLatency(spec));
      }
      case OpClass::Movement:
        return static_cast<SimTime>(1.2 * load_time);
    }
    return load_time;
}

Bytes
KernelModel::loadCapacityBytes(const KernelSpec &spec,
                               double latency_increase_limit) const
{
    if (latency_increase_limit <= 0.0)
        return 0;
    const SimTime budget = static_cast<SimTime>(
        latency_increase_limit * baseLatency(spec));
    // Penalty is monotone in bytes: binary search, capped to keep OPG
    // domains bounded.
    Bytes lo = 0, hi = mib(256);
    if (inlineLoadPenalty(spec, hi) <= budget)
        return hi;
    while (hi - lo > kib(4)) {
        Bytes mid = lo + (hi - lo) / 2;
        if (inlineLoadPenalty(spec, mid) <= budget)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace flashmem::gpusim
