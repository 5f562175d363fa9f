#include "core/lc_opg.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace flashmem::core {

namespace {

/** Host seconds split into PlanStats' phase fields: each lap() adds
 * the time since the previous lap to one field. */
class PhaseClock
{
  public:
    void
    lap(double &phase)
    {
        // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
        const auto now = std::chrono::steady_clock::now();
        phase += std::chrono::duration<double>(now - last_).count();
        last_ = now;
    }

  private:
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    std::chrono::steady_clock::time_point last_ =
        // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
        std::chrono::steady_clock::now();
};

/** Rolling-window length in layers. Windows keep each flow small: one
 * flow over a whole model makes every augmenting path span the model
 * (src/solver/README.md, "Why the windows stay"). */
constexpr graph::NodeId kWindowLayers = 32;

/** Objective scaling: lambda/mu mapped onto integer coefficients. */
constexpr std::int64_t kObjScale = 100;

/**
 * Ledger-checked chunk placement step shared by the window commit and
 * the re-balancing pass: take up to @p want chunks of a weight
 * consumed at @p consumer at layer @p l, bounded by the layer's
 * residual capacity and the in-flight headroom over [l, consumer),
 * committing the take to both ledgers.
 * @return chunks actually taken (0 when the layer cannot help).
 */
std::int64_t
takeAtLayer(graph::NodeId l, graph::NodeId consumer, std::int64_t want,
            std::int64_t mpeak_chunks,
            std::vector<std::int64_t> &residual,
            std::vector<std::int64_t> &inflight)
{
    std::int64_t take = std::min(want, residual[l]);
    for (graph::NodeId p = l; p < consumer && take > 0; ++p)
        take = std::min(take, mpeak_chunks - inflight[p]);
    if (take <= 0)
        return 0;
    residual[l] -= take;
    for (graph::NodeId p = l; p < consumer; ++p)
        inflight[p] += take;
    return take;
}

} // namespace

LcOpgPlanner::LcOpgPlanner(const graph::Graph &g,
                           const profiler::CapacityProvider &capacity,
                           const gpusim::KernelModel &,
                           OpgParams params)
    : g_(g), capacity_(capacity), params_(params),
      slicer_(params.chunkBytes)
{
    FM_ASSERT(params_.maxLoadDistance > 0, "bad OPG load distance");
}

void
LcOpgPlanner::processNodes()
{
    const auto layers = static_cast<graph::NodeId>(g_.layerCount());
    capacity_chunks_.assign(layers, 0);
    for (graph::NodeId l = 0; l < layers; ++l) {
        auto spec = gpusim::kernelSpecFor(g_, l, true);
        spec.pipelined = true;
        capacity_chunks_[l] =
            capacity_.capacityChunks(spec, params_.chunkBytes);
    }
    chunk_count_.resize(g_.weightCount());
    for (std::size_t w = 0; w < g_.weightCount(); ++w)
        chunk_count_[w] = slicer_.chunkCount(g_.weight(
            static_cast<graph::WeightId>(w)));

    // Explicit preload list: pin weights (consumer order) into W until
    // the requested fraction of bytes is covered.
    pinned_preload_.assign(g_.weightCount(), false);
    if (params_.minPreloadFraction > 0.0) {
        auto target = static_cast<Bytes>(
            params_.minPreloadFraction *
            static_cast<double>(g_.totalWeightBytes()));
        std::vector<graph::WeightId> order;
        for (const auto &w : g_.weights())
            order.push_back(w.id);
        std::sort(order.begin(), order.end(),
                  [&](graph::WeightId a, graph::WeightId b) {
                      return g_.weight(a).consumer <
                             g_.weight(b).consumer;
                  });
        Bytes covered = 0;
        for (auto wid : order) {
            if (covered >= target)
                break;
            pinned_preload_[wid] = true;
            covered += g_.weight(wid).bytes();
        }
    }
}

LcOpgPlanner::Window
LcOpgPlanner::windowAt(graph::NodeId start, graph::NodeId end) const
{
    Window win;
    win.end = end;
    // Weights consumed inside this window, in consumer order (pinned
    // preload-list weights are handled by plan() directly).
    for (const auto &w : g_.weights()) {
        if (w.consumer >= start && w.consumer < end &&
            !pinned_preload_[w.id])
            win.weights.push_back(w.id);
    }
    std::sort(win.weights.begin(), win.weights.end(),
              [&](graph::WeightId a, graph::WeightId b) {
                  return g_.weight(a).consumer < g_.weight(b).consumer;
              });

    // Candidate transform layers per weight (earlier windows' layers
    // too, through whatever residual capacity they left).
    win.cands.resize(win.weights.size());
    win.minCand = end;
    for (std::size_t k = 0; k < win.weights.size(); ++k) {
        const auto &w = g_.weight(win.weights[k]);
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        for (graph::NodeId l = lo; l < w.consumer; ++l) {
            if (residual_capacity_[l] > 0) {
                win.cands[k].push_back(l);
                win.minCand = std::min(win.minCand, l);
            }
        }
    }
    return win;
}

solver::WindowNetwork
LcOpgPlanner::windowNetwork(const Window &win) const
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    solver::WindowNetwork net;
    net.firstLayer = win.minCand;
    net.endLayer = win.end;
    for (std::size_t k = 0; k < win.weights.size(); ++k) {
        net.weights.push_back({g_.weight(win.weights[k]).consumer,
                               chunk_count_[win.weights[k]],
                               win.cands[k]});
    }
    net.residual = residual_capacity_;
    net.headroom.resize(inflight_used_.size());
    for (std::size_t p = 0; p < inflight_used_.size(); ++p)
        net.headroom[p] =
            std::max<std::int64_t>(mpeak_chunks - inflight_used_[p], 0);
    net.lambdaS = static_cast<std::int64_t>(params_.lambda * kObjScale);
    net.muS = static_cast<std::int64_t>(kMu * kObjScale);
    return net;
}

void
LcOpgPlanner::commitWindow(const Window &win, const solver::WindowPlan &x,
                           OverlapPlan &plan)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    for (std::size_t k = 0; k < win.weights.size(); ++k) {
        const auto wid = win.weights[k];
        const auto consumer = g_.weight(wid).consumer;
        std::int64_t streamed = 0;
        graph::NodeId first = graph::kInvalidNode;
        for (std::size_t j = 0; j < win.cands[k].size(); ++j) {
            const std::int64_t c = x[k][j];
            if (c == 0)
                continue;
            const auto l = win.cands[k][j];
            const std::int64_t take =
                takeAtLayer(l, consumer, c, mpeak_chunks,
                            residual_capacity_, inflight_used_);
            FM_ASSERT(take == c, "window flow streams ", c,
                      " chunks of weight ", wid, " at layer ", l,
                      " where ", take, " fit");
            plan.addAssignment(wid, l, c);
            streamed += c;
            if (first == graph::kInvalidNode)
                first = l; // candidates ascend: z_w, the first used
        }
        plan.setPreloadChunks(wid, chunk_count_[wid] - streamed);
        if (first != graph::kInvalidNode)
            plan.setEarliestLoad(wid, first);
    }
}

void
LcOpgPlanner::rebalanceMerge(OverlapPlan &plan, PlanStats &stats)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    // Consumer order (id tie-break): deterministic, and the order the
    // windows committed in, so top-ups drain leftover capacity front
    // to back.
    std::vector<graph::WeightId> order;
    for (const auto &w : g_.weights()) {
        if (!pinned_preload_[w.id] &&
            plan.schedule(w.id).preloadChunks > 0 && w.consumer > 0)
            order.push_back(w.id);
    }
    std::sort(order.begin(), order.end(),
              [&](graph::WeightId a, graph::WeightId b) {
                  auto ca = g_.weight(a).consumer;
                  auto cb = g_.weight(b).consumer;
                  return ca != cb ? ca < cb : a < b;
              });

    for (auto wid : order) {
        const auto &w = g_.weight(wid);
        const auto &s = plan.schedule(wid);
        std::int64_t preload = s.preloadChunks;
        const std::int64_t before = preload;
        graph::NodeId first_added = graph::kInvalidNode;
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        // Latest-feasible: chunks arrive as close to their use as the
        // leftover capacity allows.
        for (graph::NodeId l = w.consumer - 1; l >= lo && preload > 0;
             --l) {
            std::int64_t take =
                takeAtLayer(l, w.consumer, preload, mpeak_chunks,
                            residual_capacity_, inflight_used_);
            if (take <= 0)
                continue;
            plan.addAssignment(wid, l, take);
            preload -= take;
            stats.rebalancedChunks += take;
            if (first_added == graph::kInvalidNode || l < first_added)
                first_added = l;
        }
        if (preload == before)
            continue;
        plan.setPreloadChunks(wid, preload);
        // C1: z_w covers the new (possibly earlier) first transform.
        graph::NodeId z = s.earliestLoadLayer;
        if (z == graph::kInvalidNode || first_added < z)
            z = first_added;
        plan.setEarliestLoad(wid, z);
    }
}

OverlapPlan
LcOpgPlanner::plan(PlanStats *stats)
{
    PlanStats local;
    PhaseClock clock;
    processNodes();
    residual_capacity_ = capacity_chunks_;
    inflight_used_.assign(g_.layerCount(), 0);
    clock.lap(local.processNodesSeconds);

    OverlapPlan plan(g_, params_.chunkBytes);
    for (std::size_t w = 0; w < g_.weightCount(); ++w) {
        if (pinned_preload_[w]) {
            plan.setPreloadChunks(static_cast<graph::WeightId>(w),
                                  chunk_count_[w]);
        }
    }
    // Windows in layer order: each solves its flow against the ledgers
    // as the windows before it left them, then commits into them.
    const auto layers = static_cast<graph::NodeId>(g_.layerCount());
    for (graph::NodeId start = 0; start < layers; start += kWindowLayers) {
        PlanStats::WindowSolveSummary summary;
        summary.window = local.windows++;
        const Window win =
            windowAt(start, std::min(start + kWindowLayers, layers));
        clock.lap(local.stageSeconds);
        if (!win.weights.empty()) {
            const auto net = windowNetwork(win);
            clock.lap(local.buildModelSeconds);
            const auto sol = solver::solveWindow(net);
            clock.lap(local.solveSeconds);
            commitWindow(win, sol.x, plan);
            clock.lap(local.mergeSeconds);
            summary.status = sol.status;
            summary.objective = sol.objective;
            summary.bound = sol.bound;
            summary.augmentations = sol.augmentations;
        }
        local.solverDecisions += summary.augmentations;
        if (summary.status == solver::SolveStatus::Optimal)
            ++local.optimalWindows;
        else
            ++local.feasibleWindows;
        local.windowSummaries.push_back(summary);
    }
    rebalanceMerge(plan, local);
    clock.lap(local.mergeSeconds);
    local.solveCpuSeconds = local.solveSeconds;
    local.overallStatus = local.feasibleWindows
                              ? solver::SolveStatus::Feasible
                              : solver::SolveStatus::Optimal;

    plan.validate(g_);
    if (stats)
        *stats = local;
    return plan;
}

} // namespace flashmem::core
