#include "core/flashmem.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::core {

namespace {

/** Adaptive fusion feedback rounds. */
constexpr int kMaxFusionRounds = 3;
/** Preload fraction above which a fusion round triggers splits. */
constexpr double kSplitTriggerPreloadFraction = 0.15;

} // namespace

FlashMem::FlashMem(const gpusim::DeviceProfile &device,
                   FlashMemOptions options)
    : device_(device), options_(options), kernel_model_(device_),
      capacity_(kernel_model_, options_.thresholds)
{
}

double
FlashMem::groupPenalty(const graph::Graph &fused, const OverlapPlan &plan,
                       graph::NodeId fused_node) const
{
    // Penalty(v_fused) = lambda |W_new| + mu * dz (Section 4.3):
    // preload bytes forced onto this kernel's weights plus the distance
    // shortfall of its streamed weights.
    WeightSlicer slicer(plan.chunkBytes());
    double penalty = 0.0;
    for (auto wid : fused.node(fused_node).weights) {
        const auto &w = fused.weight(wid);
        const auto &s = plan.schedule(wid);
        Bytes preload = slicer.bytesForChunks(w, s.preloadChunks);
        penalty += options_.opg.lambda * static_cast<double>(preload);
        if (s.earliestLoadLayer != graph::kInvalidNode) {
            double dist = static_cast<double>(w.consumer -
                                              s.earliestLoadLayer);
            double shortfall =
                std::max(0.0, static_cast<double>(
                                  options_.opg.maxLoadDistance) -
                                  dist);
            penalty += kMu * shortfall *
                       static_cast<double>(w.bytes() - preload) /
                       static_cast<double>(options_.opg.maxLoadDistance);
        }
    }
    return penalty;
}

CompiledModel
FlashMem::compile(const graph::Graph &model) const
{
    FusionPass fusion(model, options_.fusion);
    auto partition = options_.adaptiveFusion ? fusion.initialPartition()
                                             : fusion.singletonPartition();

    CompiledModel out;
    for (int round = 0; round <= kMaxFusionRounds; ++round) {
        std::vector<graph::NodeId> fused_id_of_group;
        out.fusedGraph = fusion.materialize(partition,
                                            &fused_id_of_group);
        out.fusionRounds = round;

        LcOpgPlanner planner(out.fusedGraph, capacity_, kernel_model_,
                             options_.opg);
        out.plan = planner.plan(&out.stats);
        out.totalSolveSeconds += out.stats.solveSeconds;
        out.totalSolverDecisions += out.stats.solverDecisions;

        if (!options_.adaptiveFusion || round == kMaxFusionRounds)
            break;
        if (out.plan.overlapFraction(out.fusedGraph) >=
            1.0 - kSplitTriggerPreloadFraction)
            break;

        // Adaptive fusion triggering: rank fused kernels by penalty,
        // verify split feasibility, rebuild, and re-invoke the solver.
        struct Candidate
        {
            std::size_t group;
            double penalty;
        };
        std::vector<Candidate> candidates;
        for (std::size_t gid = 0; gid < partition.size(); ++gid) {
            if (partition[gid].members.size() < 2)
                continue;
            double p = groupPenalty(out.fusedGraph, out.plan,
                                    fused_id_of_group[gid]);
            if (p > 0.0)
                candidates.push_back({gid, p});
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &a, const Candidate &b) {
                      return a.penalty > b.penalty;
                  });
        if (candidates.size() >
            static_cast<std::size_t>(options_.fusion.splitTopK))
            candidates.resize(options_.fusion.splitTopK);

        int split_count = 0;
        std::vector<FusionGroup> next;
        std::vector<bool> splitting(partition.size(), false);
        std::vector<std::pair<FusionGroup, FusionGroup>> split_parts(
            partition.size());
        for (const auto &c : candidates) {
            FusionGroup head, tail;
            if (!fusion.splitGroup(partition[c.group], &head, &tail))
                continue;
            if (!fusion.splitFeasible(partition[c.group], head, tail,
                                      capacity_,
                                      options_.opg.chunkBytes))
                continue;
            splitting[c.group] = true;
            split_parts[c.group] = {std::move(head), std::move(tail)};
            ++split_count;
        }
        if (split_count == 0)
            break;
        for (std::size_t gid = 0; gid < partition.size(); ++gid) {
            if (splitting[gid]) {
                next.push_back(std::move(split_parts[gid].first));
                next.push_back(std::move(split_parts[gid].second));
            } else {
                next.push_back(std::move(partition[gid]));
            }
        }
        partition = std::move(next);
        out.groupsSplit += split_count;
    }

    out.runtime = StreamingRuntime(out.fusedGraph, out.plan);
    KernelRewriter rewriter(out.fusedGraph, out.plan,
                            options_.kernelRewriting);
    out.kernels = rewriter.rewriteAll();
    out.planBudget = options_.opg.mPeak;
    return out;
}

CompiledModel
FlashMem::replan(const CompiledModel &compiled, Bytes mPeak) const
{
    CompiledModel out;
    out.fusedGraph = compiled.fusedGraph;
    out.fusionRounds = compiled.fusionRounds;
    out.groupsSplit = compiled.groupsSplit;
    out.replans = compiled.replans + 1;
    out.planBudget = mPeak;

    FM_ASSERT(mPeak >= options_.opg.chunkBytes,
              "re-plan budget below one chunk (", mPeak, " bytes)");
    OpgParams params = options_.opg;
    params.mPeak = mPeak;
    LcOpgPlanner planner(out.fusedGraph, capacity_, kernel_model_, params);
    out.plan = planner.plan(&out.stats);
    out.totalSolveSeconds = out.stats.solveSeconds;
    out.totalSolverDecisions = out.stats.solverDecisions;

    out.runtime = StreamingRuntime(out.fusedGraph, out.plan);
    KernelRewriter rewriter(out.fusedGraph, out.plan,
                            options_.kernelRewriting);
    out.kernels = rewriter.rewriteAll();
    return out;
}

RunResult
FlashMem::execute(gpusim::GpuSimulator &sim,
                  const CompiledModel &compiled, SimTime arrival) const
{
    compiled.plan.validate(compiled.fusedGraph);
    RunConfig cfg;
    cfg.arrival = arrival;
    cfg.branchFreeKernels = options_.kernelRewriting;
    return compiled.runtime.run(sim, cfg);
}

RunResult
FlashMem::runOnce(const graph::Graph &model) const
{
    auto compiled = compile(model);
    gpusim::GpuSimulator sim(device_);
    return execute(sim, compiled, 0);
}

} // namespace flashmem::core
