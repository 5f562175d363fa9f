#include "profiler/features.hh"

#include <cmath>

namespace flashmem::profiler {

using graph::OpClass;

const std::vector<std::string> &
kernelFeatureNames()
{
    static const std::vector<std::string> names = {
        "is_elemental", "is_reusable",  "is_hierarchical", "is_movement",
        "log_macs",     "log_bytes",    "log_input_bytes", "log_gws",
        "lws",          "compute_intensity", "uses_texture",
        "pipelined",    "extra_ratio",
    };
    return names;
}

std::vector<double>
kernelFeatures(const gpusim::KernelSpec &spec, double extra_ratio)
{
    auto cls = spec.cls();
    auto log1p_safe = [](double v) { return std::log1p(v); };
    double bytes = static_cast<double>(spec.totalBytes());
    double intensity =
        static_cast<double>(spec.macs) / (bytes > 0 ? bytes : 1.0);

    return {
        cls == OpClass::Elemental ? 1.0 : 0.0,
        cls == OpClass::Reusable ? 1.0 : 0.0,
        cls == OpClass::Hierarchical ? 1.0 : 0.0,
        cls == OpClass::Movement ? 1.0 : 0.0,
        log1p_safe(static_cast<double>(spec.macs)),
        log1p_safe(bytes),
        log1p_safe(static_cast<double>(spec.inputBytes)),
        log1p_safe(static_cast<double>(spec.gwsX) * spec.gwsY),
        static_cast<double>(spec.lwsX * spec.lwsY),
        intensity,
        spec.usesTexture ? 1.0 : 0.0,
        spec.pipelined ? 1.0 : 0.0,
        extra_ratio,
    };
}

std::vector<double>
graphFeatures(const graph::Graph &g)
{
    double macs = static_cast<double>(g.totalMacs());
    double wbytes = static_cast<double>(g.totalWeightBytes());
    double layers = static_cast<double>(g.layerCount());
    return {
        std::log1p(macs),
        std::log1p(wbytes),
        std::log1p(static_cast<double>(g.totalParams())),
        std::log1p(static_cast<double>(g.peakActivationBytes())),
        std::log1p(layers),
        std::log1p(static_cast<double>(g.weightCount())),
        macs / (wbytes > 0 ? wbytes : 1.0),
        std::log1p(macs / (layers > 0 ? layers : 1.0)),
    };
}

} // namespace flashmem::profiler
