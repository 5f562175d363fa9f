#include "core/runtime.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::core {

using gpusim::MemKind;

StreamingRuntime::StreamingRuntime(const graph::Graph &g,
                                   const OverlapPlan &plan)
    : model_(g.name())
{
    plan.validate(g);
    const auto layers = static_cast<graph::NodeId>(g.layerCount());

    // Framework residency: CL context, command buffers, graph metadata
    // and IO staging that any runtime keeps live for a loaded model.
    base_overhead_ =
        mib(60) + static_cast<Bytes>(g.layerCount()) * kib(30);

    // FlashMem treats initialization and execution as a whole:
    // execution starts immediately, and preload reads are interleaved
    // with streamed reads in consumer order. A layer issues its reads
    // in weight order.
    struct Issue
    {
        graph::NodeId layer;
        DiskIssue read;
    };
    std::vector<Issue> issues;
    std::vector<std::uint32_t> preload_slot(g.weightCount());
    std::vector<std::uint32_t> stream_slot(g.weightCount());
    std::vector<graph::NodeId> stream_layer(g.weightCount(),
                                            graph::kInvalidNode);
    std::vector<std::int64_t> stream_chunks(g.weightCount(), 0);
    WeightSlicer slicer(plan.chunkBytes());
    for (const auto &w : g.weights()) {
        const auto &s = plan.schedule(w.id);
        Bytes pb = slicer.bytesForChunks(w, s.preloadChunks);
        if (s.preloadChunks > 0) {
            // Preload reads are sequenced by consumer with a large
            // lead, so early layers are never blocked behind weights
            // needed much later.
            preload_slot[w.id] = preload_slots_++;
            issues.push_back({std::max<graph::NodeId>(
                                  0, w.consumer - kPreloadLeadLayers),
                              {pb, preload_slot[w.id], true}});
        }
        stream_chunks[w.id] = slicer.chunkCount(w) - s.preloadChunks;
        if (s.earliestLoadLayer != graph::kInvalidNode &&
            stream_chunks[w.id] > 0) {
            stream_slot[w.id] = stream_slots_++;
            stream_layer[w.id] = s.earliestLoadLayer;
            issues.push_back({s.earliestLoadLayer,
                              {w.bytes() - pb, stream_slot[w.id], false}});
        }
    }
    std::stable_sort(issues.begin(), issues.end(),
                     [](const Issue &a, const Issue &b) {
                         return a.layer < b.layer;
                     });

    std::vector<graph::NodeId> last_consumer(g.layerCount(),
                                             graph::kInvalidNode);
    for (const auto &n : g.nodes()) {
        for (auto in : n.inputs)
            last_consumer[in] = std::max(last_consumer[in], n.id);
    }

    const auto moved = plan.movedBytes(g);
    std::vector<std::int64_t> chunks_done(g.weightCount(), 0);
    std::size_t next_issue = 0;
    layers_.reserve(g.layerCount());
    for (graph::NodeId l = 0; l < layers; ++l) {
        const auto &node = g.node(l);
        Layer layer;
        for (; next_issue < issues.size() &&
               issues[next_issue].layer == l;
             ++next_issue)
            issues_.push_back(issues[next_issue].read);

        // Readiness: weights consumed here must be fully resident in
        // texture memory — streamed chunks were transformed by earlier
        // kernels (plan validation), preloaded bytes arrive with the
        // init stream; inline chunks must be on unified memory.
        for (auto wid : node.weights) {
            if (plan.schedule(wid).preloadChunks > 0)
                waits_.push_back(preload_slot[wid]);
        }
        const auto &assigns = plan.assignmentsAt(l);
        for (std::size_t k = 0; k < assigns.size(); ++k) {
            const auto &a = assigns[k];
            FM_ASSERT(stream_layer[a.weight] != graph::kInvalidNode &&
                          stream_layer[a.weight] <= l,
                      "transform before disk issue for weight ",
                      a.weight);
            // A weight assigned twice here needs both assignments'
            // chunks on unified memory, so the share accumulates.
            chunks_done[a.weight] += a.chunks;
            InlineMove m;
            m.frac = static_cast<double>(chunks_done[a.weight]) /
                     static_cast<double>(stream_chunks[a.weight]);
            m.bytes = moved[l][k];
            m.stream = stream_slot[a.weight];
            layer.inlineBytes += m.bytes;
            moves_.push_back(m);
        }

        layer.spec = gpusim::kernelSpecFor(g, l, true);
        layer.activationBytes = node.output.bytes();

        // Texture weights retire after their (single) consumer — both
        // the streamed chunks and this weight's share of the preload
        // set; inference uses each weight once.
        for (auto wid : node.weights) {
            if (g.weight(wid).bytes() > 0)
                texture_frees_.push_back(g.weight(wid).bytes());
        }

        // Retire activations whose last consumer ran (dedup repeated
        // inputs such as add(x, x)).
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            auto in = node.inputs[i];
            if (std::find(node.inputs.begin(), node.inputs.begin() + i,
                          in) != node.inputs.begin() + i)
                continue;
            if (last_consumer[in] == l)
                activation_frees_.push_back(g.node(in).output.bytes());
        }

        layer.issuesEnd = static_cast<std::uint32_t>(issues_.size());
        layer.waitsEnd = static_cast<std::uint32_t>(waits_.size());
        layer.movesEnd = static_cast<std::uint32_t>(moves_.size());
        layer.textureFreesEnd =
            static_cast<std::uint32_t>(texture_frees_.size());
        layer.activationFreesEnd =
            static_cast<std::uint32_t>(activation_frees_.size());
        layers_.push_back(layer);
    }

    // Unconsumed outputs unload with the model.
    for (const auto &n : g.nodes()) {
        if (last_consumer[n.id] == graph::kInvalidNode)
            final_frees_.push_back(n.output.bytes());
    }
}

RunResult
StreamingRuntime::run(gpusim::GpuSimulator &sim,
                      const RunConfig &cfg) const
{
    auto &mem = sim.memory();
    const auto &km = sim.kernelModel();

    RunResult result;
    result.model = model_;
    result.arrival = cfg.arrival;
    result.start = cfg.arrival;
    mem.alloc(MemKind::Scratch, base_overhead_, cfg.arrival);

    // Each preloaded weight becomes texture-resident as its bytes pass
    // through the DMA transform queue.
    std::vector<SimTime> preload_ready(preload_slots_, cfg.arrival);
    std::vector<gpusim::Interval> disk_iv(stream_slots_);
    SimTime init_done = cfg.arrival;
    SimTime prev_end = cfg.arrival;
    std::size_t issue = 0, wait = 0, move = 0, tex = 0, act = 0;
    for (const auto &layer : layers_) {
        for (; issue < layer.issuesEnd; ++issue) {
            const auto &d = issues_[issue];
            if (d.preload) {
                auto iv = sim.disk().transfer(prev_end, d.bytes);
                mem.alloc(MemKind::UnifiedWeights, d.bytes, prev_end);
                auto xf = sim.transformQueue().transfer(iv.end, d.bytes);
                preload_ready[d.slot] = xf.end;
                init_done = std::max(init_done, xf.end);
                mem.free(MemKind::UnifiedWeights, d.bytes, xf.end);
                mem.alloc(MemKind::TextureWeights, d.bytes, xf.end);
                continue;
            }
            disk_iv[d.slot] = sim.disk().transfer(prev_end, d.bytes);
            mem.alloc(MemKind::UnifiedWeights, d.bytes, prev_end);
        }

        SimTime ready = prev_end;
        for (; wait < layer.waitsEnd; ++wait)
            ready = std::max(ready, preload_ready[waits_[wait]]);
        const std::size_t first_move = move;
        for (; move < layer.movesEnd; ++move) {
            const auto &m = moves_[move];
            const auto &iv = disk_iv[m.stream];
            ready = std::max(
                ready, iv.start + static_cast<SimTime>(
                                      m.frac * static_cast<double>(
                                                   iv.duration())));
        }

        // Kernel dispatch.
        auto spec = layer.spec;
        spec.pipelined = cfg.branchFreeKernels && layer.inlineBytes > 0;
        SimTime duration = km.baseLatency(spec) +
                           km.inlineLoadPenalty(spec, layer.inlineBytes);
        auto k_iv = sim.computeQueue().reserve(ready, duration);
        result.stallTime += std::max<SimTime>(k_iv.start - prev_end, 0);
        ++result.kernels;

        mem.alloc(MemKind::Activations, layer.activationBytes,
                  k_iv.start);
        // Inline transforms retire with the kernel: UM -> TM.
        for (std::size_t i = first_move; i < move; ++i) {
            mem.free(MemKind::UnifiedWeights, moves_[i].bytes, k_iv.end);
            mem.alloc(MemKind::TextureWeights, moves_[i].bytes, k_iv.end);
        }
        for (; tex < layer.textureFreesEnd; ++tex)
            mem.free(MemKind::TextureWeights, texture_frees_[tex],
                     k_iv.end);
        for (; act < layer.activationFreesEnd; ++act)
            mem.free(MemKind::Activations, activation_frees_[act],
                     k_iv.end);
        prev_end = k_iv.end;
    }

    for (auto bytes : final_frees_)
        mem.free(MemKind::Activations, bytes, prev_end);
    mem.free(MemKind::Scratch, base_overhead_, prev_end);

    result.initDone = std::min(init_done, prev_end);
    result.end = prev_end;
    result.peakMemory = mem.peakOver(result.start, result.end);
    result.avgMemoryBytes = mem.averageBytes(result.start, result.end);
    result.oom = result.peakMemory > sim.device().appMemoryBudget &&
                 sim.device().appMemoryBudget > 0;
    return result;
}

} // namespace flashmem::core
