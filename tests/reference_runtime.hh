/**
 * @file
 * Reference streaming runtime for tests.
 *
 * referenceRun executes a graph under an overlap plan the direct way:
 * every call derives the disk reads, readiness, kernel specs, inline
 * bytes and frees from the graph and the plan while it walks the
 * layers. It is the streaming runtime as it was before the stream
 * program was built once per artifact, kept so tests can check that a
 * replay (core::StreamingRuntime::run) makes the same timeline
 * reservations and memory events at the same times.
 *
 * They differ on one plan shape: a weight assigned twice in one layer.
 * Here each assignment waits for its own share of the weight's stream
 * plus what earlier layers took, and the kernel's inline bytes cap each
 * assignment at what earlier layers left; the replay counts both
 * assignments in the share and caps them one after the other.
 */

#ifndef FLASHMEM_TESTS_REFERENCE_RUNTIME_HH
#define FLASHMEM_TESTS_REFERENCE_RUNTIME_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "core/overlap_plan.hh"
#include "core/runtime.hh"
#include "core/weight_slicer.hh"
#include "gpusim/kernel.hh"
#include "gpusim/simulator.hh"
#include "graph/graph.hh"

namespace flashmem::core {

/**
 * Execute @p g under @p plan on @p sim. With @p moved_by_layer, also
 * report the bytes each layer's kernel moved from unified into texture
 * memory.
 */
inline RunResult
referenceRun(gpusim::GpuSimulator &sim, const graph::Graph &g,
             const OverlapPlan &plan, const RunConfig &cfg = {},
             std::vector<Bytes> *moved_by_layer = nullptr)
{
    using gpusim::MemKind;
    constexpr graph::NodeId kPreloadLeadLayers = 64;
    plan.validate(g);

    struct LoadIssue
    {
        graph::WeightId weight = -1;
        bool preload = false;
    };
    std::vector<std::vector<LoadIssue>> loads_at(g.layerCount());
    WeightSlicer slicer(plan.chunkBytes());
    for (const auto &w : g.weights()) {
        const auto &s = plan.schedule(w.id);
        if (s.preloadChunks > 0) {
            graph::NodeId z = std::max<graph::NodeId>(
                0, w.consumer - kPreloadLeadLayers);
            loads_at[z].push_back({w.id, true});
        }
        if (s.earliestLoadLayer != graph::kInvalidNode &&
            slicer.chunkCount(w) > s.preloadChunks)
            loads_at[s.earliestLoadLayer].push_back({w.id, false});
    }
    std::vector<graph::NodeId> last_consumer(g.layerCount(),
                                             graph::kInvalidNode);
    for (const auto &n : g.nodes()) {
        for (auto in : n.inputs)
            last_consumer[in] = std::max(last_consumer[in], n.id);
    }
    if (moved_by_layer)
        moved_by_layer->assign(g.layerCount(), 0);

    auto &mem = sim.memory();
    const auto &km = sim.kernelModel();
    RunResult result;
    result.model = g.name();
    result.arrival = cfg.arrival;
    result.start = cfg.arrival;
    Bytes base_overhead =
        mib(60) + static_cast<Bytes>(g.layerCount()) * kib(30);
    mem.alloc(MemKind::Scratch, base_overhead, cfg.arrival);

    std::vector<SimTime> preload_ready(g.weightCount(), cfg.arrival);
    SimTime init_done = cfg.arrival;
    std::vector<gpusim::Interval> disk_iv(g.weightCount());
    std::vector<bool> disk_issued(g.weightCount(), false);
    std::vector<std::int64_t> chunks_done(g.weightCount(), 0);
    std::vector<Bytes> um_remaining(g.weightCount(), 0);
    std::vector<std::int64_t> stream_chunks(g.weightCount(), 0);
    for (const auto &w : g.weights()) {
        stream_chunks[w.id] = slicer.chunkCount(w) -
                              plan.schedule(w.id).preloadChunks;
    }

    SimTime prev_end = cfg.arrival;
    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    for (graph::NodeId l = 0; l < layers; ++l) {
        const auto &node = g.node(l);
        for (const auto &issue : loads_at[l]) {
            const auto &w = g.weight(issue.weight);
            Bytes pb = slicer.bytesForChunks(
                w, plan.schedule(issue.weight).preloadChunks);
            if (issue.preload) {
                auto iv = sim.disk().transfer(prev_end, pb);
                mem.alloc(MemKind::UnifiedWeights, pb, prev_end);
                auto xf = sim.transformQueue().transfer(iv.end, pb);
                preload_ready[issue.weight] = xf.end;
                init_done = std::max(init_done, xf.end);
                mem.free(MemKind::UnifiedWeights, pb, xf.end);
                mem.alloc(MemKind::TextureWeights, pb, xf.end);
                continue;
            }
            Bytes stream_bytes = w.bytes() - pb;
            disk_iv[issue.weight] =
                sim.disk().transfer(prev_end, stream_bytes);
            disk_issued[issue.weight] = true;
            um_remaining[issue.weight] = stream_bytes;
            mem.alloc(MemKind::UnifiedWeights, stream_bytes, prev_end);
        }

        SimTime ready = prev_end;
        for (auto wid : node.weights) {
            if (plan.schedule(wid).preloadChunks > 0)
                ready = std::max(ready, preload_ready[wid]);
        }
        Bytes inline_bytes = 0;
        const auto &assigns = plan.assignmentsAt(l);
        for (const auto &a : assigns) {
            FM_ASSERT(disk_issued[a.weight],
                      "transform before disk issue for weight ",
                      a.weight);
            const auto &iv = disk_iv[a.weight];
            double frac =
                static_cast<double>(chunks_done[a.weight] + a.chunks) /
                static_cast<double>(stream_chunks[a.weight]);
            auto avail = iv.start + static_cast<SimTime>(
                                        frac * static_cast<double>(
                                                   iv.duration()));
            ready = std::max(ready, avail);
            inline_bytes += std::min<Bytes>(
                static_cast<Bytes>(a.chunks) * plan.chunkBytes(),
                um_remaining[a.weight]);
        }

        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = cfg.branchFreeKernels && inline_bytes > 0;
        SimTime duration = km.baseLatency(spec) +
                           km.inlineLoadPenalty(spec, inline_bytes);
        auto k_iv = sim.computeQueue().reserve(ready, duration);
        result.stallTime += std::max<SimTime>(k_iv.start - prev_end, 0);
        ++result.kernels;

        mem.alloc(MemKind::Activations, node.output.bytes(), k_iv.start);
        for (const auto &a : assigns) {
            Bytes moved = std::min<Bytes>(
                static_cast<Bytes>(a.chunks) * plan.chunkBytes(),
                um_remaining[a.weight]);
            chunks_done[a.weight] += a.chunks;
            um_remaining[a.weight] -= moved;
            if (moved_by_layer)
                (*moved_by_layer)[l] += moved;
            mem.free(MemKind::UnifiedWeights, moved, k_iv.end);
            mem.alloc(MemKind::TextureWeights, moved, k_iv.end);
        }
        for (auto wid : node.weights) {
            const auto &w = g.weight(wid);
            if (w.bytes() > 0)
                mem.free(MemKind::TextureWeights, w.bytes(), k_iv.end);
        }
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            auto in = node.inputs[i];
            if (std::find(node.inputs.begin(), node.inputs.begin() + i,
                          in) != node.inputs.begin() + i)
                continue;
            if (last_consumer[in] == l) {
                mem.free(MemKind::Activations,
                         g.node(in).output.bytes(), k_iv.end);
            }
        }
        prev_end = k_iv.end;
    }

    for (const auto &n : g.nodes()) {
        if (last_consumer[n.id] == graph::kInvalidNode)
            mem.free(MemKind::Activations, n.output.bytes(), prev_end);
    }
    mem.free(MemKind::Scratch, base_overhead, prev_end);

    result.initDone = std::min(init_done, prev_end);
    result.end = prev_end;
    result.peakMemory = mem.peakOver(result.start, result.end);
    result.avgMemoryBytes = mem.averageBytes(result.start, result.end);
    result.oom = result.peakMemory > sim.device().appMemoryBudget &&
                 sim.device().appMemoryBudget > 0;
    return result;
}

} // namespace flashmem::core

#endif // FLASHMEM_TESTS_REFERENCE_RUNTIME_HH
