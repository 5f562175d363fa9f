/**
 * @file
 * Kernel feature extraction for the latency regressor.
 *
 * Mirrors paper Figure 4's feature set: global/local work size, loop
 * tiling proxy, compute intensity, operator type, plus the extra-load
 * ratio whose response the model must learn.
 */

#ifndef FLASHMEM_PROFILER_FEATURES_HH
#define FLASHMEM_PROFILER_FEATURES_HH

#include <string>
#include <vector>

#include "graph/graph.hh"
#include "gpusim/kernel.hh"

namespace flashmem::profiler {

/** Names of the feature columns, aligned with kernelFeatures(). */
const std::vector<std::string> &kernelFeatureNames();

/**
 * Build the feature row for @p spec streaming @p extra_ratio times its
 * input bytes inline.
 */
std::vector<double> kernelFeatures(const gpusim::KernelSpec &spec,
                                   double extra_ratio);

/**
 * Model-level feature row from whole-graph aggregates — the inputs of
 * the cold-model service-time predictor (serving/admission.hh).
 * Everything here is derivable from the graph alone, before any
 * planning or execution: that is the point — calibration requires a
 * compile + execute per model, while these features exist the moment
 * a new model ships.
 */
std::vector<double> graphFeatures(const graph::Graph &g);

} // namespace flashmem::profiler

#endif // FLASHMEM_PROFILER_FEATURES_HH
