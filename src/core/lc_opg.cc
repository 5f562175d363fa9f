#include "core/lc_opg.hh"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flashmem::core {

namespace {

double
// FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Objective scaling: lambda/mu mapped onto integer coefficients. */
constexpr std::int64_t kObjScale = 100;

/**
 * Ledger-checked chunk placement step shared by the greedy placement,
 * the merge-time clamp, and the re-balancing pass: take up to @p want
 * chunks of a weight consumed at @p consumer at layer @p l, bounded by
 * the layer's residual capacity and the in-flight headroom over
 * [l, consumer), committing the take to both ledgers.
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
    FM_ASSERT(params_.windowLayers > 0 && params_.maxLoadDistance > 0,
              "bad OPG window parameters");
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

LcOpgPlanner::GreedyOut
LcOpgPlanner::greedyAssign(
    const std::vector<graph::WeightId> &weights,
    const std::vector<std::int64_t> &residual_capacity,
    const std::vector<std::int64_t> &inflight_used) const
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    auto residual = residual_capacity;
    auto inflight = inflight_used;

    GreedyOut out;
    out.assignments.resize(weights.size());
    out.preload.assign(weights.size(), 0);

    for (std::size_t k = 0; k < weights.size(); ++k) {
        const auto &w = g_.weight(weights[k]);
        std::int64_t remaining = chunk_count_[weights[k]];
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        // Latest-feasible placement: walk back from the consumer so
        // chunks arrive as close to their use as capacity allows.
        for (graph::NodeId l = w.consumer - 1; l >= lo && remaining > 0;
             --l) {
            std::int64_t take = takeAtLayer(l, w.consumer, remaining,
                                            mpeak_chunks, residual,
                                            inflight);
            if (take <= 0)
                continue;
            out.assignments[k].push_back({l, take});
            remaining -= take;
        }
        out.preload[k] = remaining;
    }
    return out;
}

LcOpgPlanner::WindowInput
LcOpgPlanner::stageWindow(graph::NodeId start, graph::NodeId end,
                          std::vector<std::int64_t> &staging_residual,
                          std::vector<std::int64_t> &staging_inflight)
    const
{
    WindowInput in;
    in.start = start;
    in.end = end;

    // Weights consumed inside this window, in consumer order (pinned
    // preload-list weights are handled by plan() directly).
    for (const auto &w : g_.weights()) {
        if (w.consumer >= start && w.consumer < end &&
            !pinned_preload_[w.id])
            in.weights.push_back(w.id);
    }
    if (in.weights.empty())
        return in;
    std::sort(in.weights.begin(), in.weights.end(),
              [&](graph::WeightId a, graph::WeightId b) {
                  return g_.weight(a).consumer < g_.weight(b).consumer;
              });

    // Candidate transform layers per weight (earlier windows allowed
    // through whatever staged residual capacity they left behind).
    in.cands.resize(in.weights.size());
    in.minCand = end;
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        const auto &w = g_.weight(in.weights[k]);
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        for (graph::NodeId l = lo; l < w.consumer; ++l) {
            if (staging_residual[l] > 0) {
                in.cands[k].push_back(l);
                in.minCand = std::min(in.minCand, l);
            }
        }
    }

    in.greedy = greedyAssign(in.weights, staging_residual,
                             staging_inflight);
    in.residual = staging_residual;
    in.inflight = staging_inflight;

    // Reserve the greedy's capacity in the staging ledgers: windows
    // staged after this one see the expected usage of this window, so
    // their solves can start before this window's solve finishes.
    const auto &w_list = in.weights;
    for (std::size_t k = 0; k < w_list.size(); ++k) {
        const auto consumer = g_.weight(w_list[k]).consumer;
        for (const auto &[l, c] : in.greedy.assignments[k]) {
            staging_residual[l] -= c;
            for (graph::NodeId p = l; p < consumer; ++p)
                staging_inflight[p] += c;
        }
    }
    return in;
}

solver::WindowNetwork
LcOpgPlanner::windowNetwork(const WindowInput &in) const
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    solver::WindowNetwork net;
    net.firstLayer = in.minCand;
    net.endLayer = in.end;
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        net.weights.push_back({g_.weight(in.weights[k]).consumer,
                               chunk_count_[in.weights[k]], in.cands[k]});
    }
    net.residual = in.residual;
    net.headroom.resize(in.inflight.size());
    for (std::size_t p = 0; p < in.inflight.size(); ++p)
        net.headroom[p] =
            std::max<std::int64_t>(mpeak_chunks - in.inflight[p], 0);
    net.lambdaS = static_cast<std::int64_t>(params_.lambda * kObjScale);
    net.muS = static_cast<std::int64_t>(kMu * kObjScale);
    return net;
}

solver::WindowPlan
LcOpgPlanner::greedyPlan(const WindowInput &in)
{
    solver::WindowPlan x(in.weights.size());
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        x[k].assign(in.cands[k].size(), 0);
        for (const auto &[l, c] : in.greedy.assignments[k]) {
            // The greedy takes only from layers with staged residual
            // capacity, which are exactly the candidates.
            auto it = std::lower_bound(in.cands[k].begin(),
                                       in.cands[k].end(), l);
            FM_ASSERT(it != in.cands[k].end() && *it == l,
                      "greedy placement at a non-candidate layer ", l);
            x[k][static_cast<std::size_t>(it - in.cands[k].begin())] = c;
        }
    }
    return x;
}

void
LcOpgPlanner::extractWindow(const WindowInput &in,
                            const solver::WindowSolution &sol,
                            WindowOutput &out) const
{
    out.summary.status = sol.status;
    out.summary.objective = sol.objective;
    out.summary.greedyObjective = sol.greedyObjective;
    out.summary.bound = sol.bound;
    out.summary.augmentations = sol.augmentations;

    const auto &weights = in.weights;
    out.preload.assign(weights.size(), 0);
    out.assign.assign(weights.size(), {});
    for (std::size_t k = 0; k < weights.size(); ++k) {
        std::int64_t streamed = 0;
        for (std::size_t j = 0; j < in.cands[k].size(); ++j) {
            if (sol.x[k][j] > 0)
                out.assign[k].push_back({in.cands[k][j], sol.x[k][j]});
            streamed += sol.x[k][j];
        }
        out.preload[k] = chunk_count_[weights[k]] - streamed;
    }
}

void
LcOpgPlanner::commitWindow(const WindowInput &in, const WindowOutput &out,
                           OverlapPlan &plan)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    // Commit into the plan and the authoritative ledgers, clamping to
    // what is really left: a window may have solved against a staged
    // snapshot that an earlier window's solver overshot (relative to
    // its greedy reservation), and the overflow moves to preload.
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        auto wid = in.weights[k];
        const auto &w = g_.weight(wid);
        std::int64_t preload = out.preload[k];
        std::vector<std::pair<graph::NodeId, std::int64_t>> kept;
        kept.reserve(out.assign[k].size());
        for (auto &[l, c] : out.assign[k]) {
            std::int64_t take =
                takeAtLayer(l, w.consumer, c, mpeak_chunks,
                            residual_capacity_, inflight_used_);
            preload += c - take;
            if (take <= 0)
                continue;
            kept.push_back({l, take});
        }
        plan.setPreloadChunks(wid, preload);
        for (auto &[l, c] : kept)
            plan.addAssignment(wid, l, c);
        if (!kept.empty()) {
            // z_w is the shipped plan's first used layer (assignments
            // run in layer order), no later than any layer the clamp
            // kept (C1).
            plan.setEarliestLoad(wid, out.assign[k].front().first);
        }
    }
}

void
LcOpgPlanner::rebalanceMerge(OverlapPlan &plan, PlanStats &stats)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    // Consumer order (id tie-break): deterministic, and the order the
    // windows themselves committed in, so top-ups drain leftover
    // capacity front to back exactly like a third merge phase.
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
        // Latest-feasible placement, mirroring the greedy placement.
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
        ++stats.rebalancedWeights;
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
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto t0 = std::chrono::steady_clock::now();
    processNodes();
    residual_capacity_ = capacity_chunks_;
    inflight_used_.assign(g_.layerCount(), 0);
    local.processNodesSeconds = secondsSince(t0);

    OverlapPlan plan(g_, params_.chunkBytes);
    for (std::size_t w = 0; w < g_.weightCount(); ++w) {
        if (pinned_preload_[w]) {
            plan.setPreloadChunks(static_cast<graph::WeightId>(w),
                                  chunk_count_[w]);
        }
    }
    // Phase 1 — stage: sequential pass computing every window's inputs
    // against the staging ledgers (greedy reservations decouple the
    // windows from each other).
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto stage_t0 = std::chrono::steady_clock::now();
    const auto layers = static_cast<graph::NodeId>(g_.layerCount());
    std::vector<WindowInput> inputs;
    {
        auto staging_residual = capacity_chunks_;
        std::vector<std::int64_t> staging_inflight(layers, 0);
        for (graph::NodeId start = 0; start < layers;
             start += params_.windowLayers) {
            graph::NodeId end =
                std::min<graph::NodeId>(start + params_.windowLayers,
                                        layers);
            inputs.push_back(stageWindow(start, end, staging_residual,
                                         staging_inflight));
        }
    }
    local.stageSeconds = secondsSince(stage_t0);

    // Phase 2 — solve: every window is one flow of its network, scored
    // against its staged greedy. The flows run concurrently on one
    // pool; the main thread consumes them in submission (window)
    // order, so downstream phases never observe completion order.
    const int threads =
        params_.parallel.threads > 0
            ? params_.parallel.threads
            : ThreadPool::defaultThreadCount();
    local.threads = threads;
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto solve_t0 = std::chrono::steady_clock::now();
    std::vector<WindowOutput> outputs(inputs.size());
    {
        struct Task
        {
            solver::WindowNetwork net;
            solver::WindowPlan greedy;
            std::future<std::pair<solver::WindowSolution, double>> future;
        };
        // Declared before the pool, whose destructor joins the workers
        // whose tasks read them.
        std::vector<Task> tasks(inputs.size());
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (inputs[i].weights.empty())
                continue;
            // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
            auto build_t0 = std::chrono::steady_clock::now();
            Task &task = tasks[i];
            task.net = windowNetwork(inputs[i]);
            task.greedy = greedyPlan(inputs[i]);
            outputs[i].buildSeconds = secondsSince(build_t0);
            task.future = pool.submit([&task]() {
                // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
                auto t0 = std::chrono::steady_clock::now();
                auto sol = solver::solveWindow(task.net, task.greedy);
                return std::make_pair(std::move(sol), secondsSince(t0));
            });
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (inputs[i].weights.empty())
                continue;
            auto [sol, seconds] = tasks[i].future.get();
            outputs[i].solveSeconds = seconds;
            extractWindow(inputs[i], sol, outputs[i]);
        }
    }
    local.solveSeconds = secondsSince(solve_t0);

    // Phase 3 — merge: commit in window order into the plan and the
    // authoritative ledgers.
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto merge_t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i)
        commitWindow(inputs[i], outputs[i], plan);
    // Second merge pass: top up preloaded chunks from capacity earlier
    // windows reserved greedily but did not use.
    if (params_.mergeRebalance)
        rebalanceMerge(plan, local);
    local.mergeSeconds = secondsSince(merge_t0);

    local.windowSummaries.reserve(outputs.size());
    for (const auto &out : outputs) {
        PlanStats::WindowSolveSummary s = out.summary;
        s.window = local.windows;
        local.windowSummaries.push_back(s);
        ++local.windows;
        local.buildModelSeconds += out.buildSeconds;
        local.solveCpuSeconds += out.solveSeconds;
        local.solverDecisions += s.augmentations;
        if (s.status == solver::SolveStatus::Optimal)
            ++local.optimalWindows;
        else
            ++local.feasibleWindows;
    }
    local.overallStatus = local.feasibleWindows
                              ? solver::SolveStatus::Feasible
                              : solver::SolveStatus::Optimal;

    plan.validate(g_);
    if (stats)
        *stats = local;
    return plan;
}

} // namespace flashmem::core
