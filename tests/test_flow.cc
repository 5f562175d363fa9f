/**
 * @file
 * Tests for the window flow (src/solver/flow.hh) on generated windows.
 *
 * Tiny windows (2-3 weights of at most 3 chunks over 2-4 layers, with
 * zero headroom, zero residual capacity, weights without candidates
 * and one-chunk weights among them): a brute-force enumerator over
 * every C0-C3-feasible x checks, per seed, that the flow's cost is the
 * minimum of the same linear cost, that bound <= exact optimum <=
 * shipped objective, and that the shipped plan satisfies C0-C3.
 *
 * Windows at planner scale: the solver must take the very augmenting
 * paths of a pair-heap Dijkstra (tests/flow_reference.hh), so its plan,
 * bound and path count equal the reference's, not just its optimum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "flow_reference.hh"
#include "solver/flow.hh"

namespace flashmem::solver {
namespace {

constexpr int kSeeds = 120;

WindowNetwork
generate(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) + 1);
    WindowNetwork net;
    const auto layers = static_cast<std::int32_t>(rng.uniformInt(2, 4));
    net.endLayer = layers;
    net.lambdaS = rng.uniformInt(0, 1) ? 90 : 50;
    net.muS = std::vector<std::int64_t>{10, 30, 60}[rng.uniformInt(0, 2)];
    for (std::int32_t l = 0; l < layers; ++l) {
        net.residual.push_back(rng.uniformInt(0, 3));
        net.headroom.push_back(rng.uniformInt(0, 3));
    }
    const auto weights = rng.uniformInt(2, 3);
    net.firstLayer = net.endLayer;
    for (std::int64_t k = 0; k < weights; ++k) {
        WindowWeight w;
        w.consumer = static_cast<std::int32_t>(rng.uniformInt(1, layers - 1));
        w.chunks = rng.uniformInt(1, 3);
        for (std::int32_t l = 0; l < w.consumer; ++l) {
            if (rng.uniformInt(0, 2) > 0) {
                w.cands.push_back(l);
                net.firstLayer = std::min(net.firstLayer, l);
            }
        }
        net.weights.push_back(w);
    }
    return net;
}

/** C0-C3 on @p x: coverage, residual capacity and in-flight headroom. */
bool
feasible(const WindowNetwork &net, const WindowPlan &x)
{
    if (x.size() != net.weights.size())
        return false;
    std::vector<std::int64_t> load(net.residual.size(), 0);
    std::vector<std::int64_t> inflight(net.headroom.size(), 0);
    for (std::size_t k = 0; k < x.size(); ++k) {
        const auto &w = net.weights[k];
        if (x[k].size() != w.cands.size())
            return false;
        std::int64_t streamed = 0;
        for (std::size_t j = 0; j < x[k].size(); ++j) {
            if (x[k][j] < 0)
                return false;
            streamed += x[k][j];
            load[w.cands[j]] += x[k][j];
            for (auto p = w.cands[j]; p < w.consumer; ++p)
                inflight[p] += x[k][j];
        }
        if (streamed > w.chunks)
            return false;
    }
    for (std::size_t l = 0; l < load.size(); ++l) {
        if (load[l] > net.residual[l] || inflight[l] > net.headroom[l])
            return false;
    }
    return true;
}

/** The flow's per-chunk cost, written out independently. */
std::int64_t
linearCost(const WindowNetwork &net, const WindowPlan &x)
{
    std::int64_t cost = 0;
    for (std::size_t k = 0; k < x.size(); ++k) {
        const auto &w = net.weights[k];
        for (std::size_t j = 0; j < x[k].size(); ++j) {
            const std::int64_t d = w.consumer - w.cands[j];
            cost += x[k][j] * (kFlowCostScale * (d - 1 - net.lambdaS) +
                               kFlowCostScale * net.muS * d / w.chunks);
        }
    }
    return cost;
}

/** The window objective, written out independently. */
std::int64_t
exactObjective(const WindowNetwork &net, const WindowPlan &x)
{
    std::int64_t obj = 0;
    for (std::size_t k = 0; k < x.size(); ++k) {
        const auto &w = net.weights[k];
        std::int64_t y = w.chunks;
        std::int32_t z = w.consumer;
        for (std::size_t j = 0; j < x[k].size(); ++j) {
            y -= x[k][j];
            obj += x[k][j] * (w.consumer - w.cands[j] - 1);
            if (x[k][j] > 0 && w.cands[j] < z)
                z = w.cands[j];
        }
        obj += net.lambdaS * y;
        if (!w.cands.empty())
            obj -= net.muS * z;
    }
    return obj;
}

/** Minimum linear cost and exact objective over every feasible x. */
struct Exhaustive
{
    std::int64_t minCost = std::numeric_limits<std::int64_t>::max();
    std::int64_t minObjective = std::numeric_limits<std::int64_t>::max();
};

Exhaustive
enumerate(const WindowNetwork &net)
{
    // One odometer digit per (weight, candidate), each 0..T.
    WindowPlan x(net.weights.size());
    std::vector<std::pair<std::size_t, std::size_t>> digits;
    for (std::size_t k = 0; k < net.weights.size(); ++k) {
        x[k].assign(net.weights[k].cands.size(), 0);
        for (std::size_t j = 0; j < x[k].size(); ++j)
            digits.push_back({k, j});
    }
    Exhaustive best;
    for (;;) {
        if (feasible(net, x)) {
            best.minCost = std::min(best.minCost, linearCost(net, x));
            best.minObjective =
                std::min(best.minObjective, exactObjective(net, x));
        }
        std::size_t i = 0;
        for (; i < digits.size(); ++i) {
            auto &v = x[digits[i].first][digits[i].second];
            if (v < net.weights[digits[i].first].chunks) {
                ++v;
                break;
            }
            v = 0;
        }
        if (i == digits.size())
            return best;
    }
}

std::int64_t
ceilScaled(std::int64_t a)
{
    std::int64_t q = a / kFlowCostScale;
    return q * kFlowCostScale < a ? q + 1 : q;
}

// The window solver against brute-force enumeration, one generated
// window per seed.
class SolverVsBruteForce : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverVsBruteForce, AgreesOnRandomInstances)
{
    const auto net = generate(GetParam());
    const auto sol = solveWindow(net);
    const auto best = enumerate(net);

    // The flow is a minimum of the linear cost over C0-C3.
    EXPECT_EQ(sol.flowCost, best.minCost);
    std::int64_t constant = 0;
    for (const auto &w : net.weights) {
        constant += net.lambdaS * w.chunks;
        if (!w.cands.empty())
            constant -= net.muS * w.consumer;
    }
    EXPECT_EQ(sol.bound, constant + ceilScaled(best.minCost));

    // bound <= exact optimum <= shipped.
    EXPECT_LE(sol.bound, best.minObjective);
    EXPECT_LE(best.minObjective, sol.objective);
    EXPECT_EQ(sol.objective, exactObjective(net, sol.x));
    EXPECT_EQ(sol.status == SolveStatus::Optimal,
              sol.objective == sol.bound);

    // The shipped plan satisfies C0-C3.
    EXPECT_TRUE(feasible(net, sol.x));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverVsBruteForce,
                         ::testing::Range(0, kSeeds));

constexpr int kPlannerScaleSeeds = 240;

/**
 * A window at planner scale: up to 56 layers and 40 weights (up to 155
 * nodes), up to 200 chunks a weight, headroom 0-1,024 with a run of
 * zeros mid-window in half the seeds, residual capacity 0-50, and each
 * weight's candidates the layers with capacity among the 24 before its
 * consumer, as the planner picks them, so candidate sets overlap and
 * bypass costs tie across weights.
 */
WindowNetwork
generatePlannerScale(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) + 1000);
    WindowNetwork net;
    const auto lead = static_cast<std::int32_t>(rng.uniformInt(0, 8));
    const auto span = static_cast<std::int32_t>(rng.uniformInt(2, 56));
    net.endLayer = lead + span;
    const std::vector<std::int64_t> lambdas{90, 90, 50, 10};
    const std::vector<std::int64_t> mus{10, 10, 0, 30};
    net.lambdaS = lambdas[rng.uniformInt(0, 3)];
    net.muS = mus[rng.uniformInt(0, 3)];
    const std::int64_t most = rng.uniformInt(0, 1024);
    for (std::int32_t l = 0; l < net.endLayer; ++l) {
        const std::int64_t residual =
            rng.uniformInt(0, 4) == 0 ? 0 : rng.uniformInt(0, 50);
        net.residual.push_back(residual);
        const std::int64_t headroom =
            rng.uniformInt(0, 9) == 0 ? 0 : rng.uniformInt(0, most);
        net.headroom.push_back(headroom);
    }
    if (rng.uniformInt(0, 1) == 1) {
        const auto from = rng.uniformInt(lead, net.endLayer - 1);
        const auto to = std::min<std::int64_t>(
            from + rng.uniformInt(1, 6), net.endLayer);
        for (auto p = from; p < to; ++p)
            net.headroom[p] = 0;
    }
    const auto weights = rng.uniformInt(0, 40);
    net.firstLayer = net.endLayer;
    for (std::int64_t k = 0; k < weights; ++k) {
        WindowWeight w;
        w.consumer = static_cast<std::int32_t>(rng.uniformInt(
            std::max(lead + 1, net.endLayer - 32), net.endLayer - 1));
        w.chunks = rng.uniformInt(0, 3) == 0 ? rng.uniformInt(1, 4)
                                             : rng.uniformInt(1, 200);
        const auto reach = std::max(lead, w.consumer - 24);
        for (auto l = reach; l < w.consumer; ++l) {
            if (net.residual[l] > 0) {
                w.cands.push_back(l);
                net.firstLayer = std::min(net.firstLayer, l);
            }
        }
        net.weights.push_back(w);
    }
    return net;
}

// The window solver against the pair-heap reference: the same paths,
// so the same plan, flow cost, bound, status and path count.
class SolverMatchesPairHeapReference : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverMatchesPairHeapReference, SamePlanBoundAndPaths)
{
    const auto net = generatePlannerScale(GetParam());
    const auto sol = solveWindow(net);
    const auto ref = reference::solveWindow(net);
    EXPECT_EQ(sol.x, ref.x);
    EXPECT_EQ(sol.flowCost, ref.flowCost);
    EXPECT_EQ(sol.bound, ref.bound);
    EXPECT_EQ(sol.objective, ref.objective);
    EXPECT_EQ(sol.status, ref.status);
    EXPECT_EQ(sol.augmentations, ref.augmentations);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverMatchesPairHeapReference,
                         ::testing::Range(0, kPlannerScaleSeeds));

TEST(FlowWindows, PlannerScaleSeedsCoverWideNetworksDipsAndTies)
{
    // Networks past one and two 64-bit words of node ids, chunk counts
    // above 150, headroom above 1,000, a layer without headroom after
    // one with it, weights sharing candidate layers, and both statuses.
    int over_64 = 0, over_128 = 0, big_weight = 0, full_headroom = 0;
    int dips = 0, shared_cands = 0, optimal = 0, feasible_only = 0;
    for (int seed = 0; seed < kPlannerScaleSeeds; ++seed) {
        const auto net = generatePlannerScale(seed);
        const auto span = net.endLayer - net.firstLayer;
        const auto nodes = 3 + 2 * std::max(span, 0) +
                           static_cast<int>(net.weights.size());
        over_64 += nodes > 64;
        over_128 += nodes > 128;
        full_headroom += *std::max_element(net.headroom.begin(),
                                           net.headroom.end()) > 1000;
        for (auto p = net.firstLayer + 1; p + 1 < net.endLayer; ++p)
            dips += net.headroom[p] == 0 && net.headroom[p - 1] > 0;
        std::vector<int> users(net.endLayer, 0);
        for (const auto &w : net.weights) {
            big_weight += w.chunks > 150;
            for (auto l : w.cands)
                shared_cands += ++users[l] == 2;
        }
        const auto sol = solveWindow(net);
        optimal += sol.status == SolveStatus::Optimal;
        feasible_only += sol.status == SolveStatus::Feasible;
    }
    EXPECT_GT(over_64, 0);
    EXPECT_GT(over_128, 0);
    EXPECT_GT(big_weight, 0);
    EXPECT_GT(full_headroom, 0);
    EXPECT_GT(dips, 0);
    EXPECT_GT(shared_cands, 0);
    EXPECT_GT(optimal, 0);
    EXPECT_GT(feasible_only, 0);
}

TEST(FlowWindows, SeedsCoverTheEdgeCasesAndBothStatuses)
{
    // The generated windows must reach every edge case, and both
    // statuses: some flow plans meet their bound and some score above
    // it (the z under-estimate).
    int no_headroom = 0, no_residual = 0, no_cands = 0, one_chunk = 0;
    int optimal = 0, feasible_only = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
        const auto net = generate(seed);
        no_headroom += std::all_of(net.headroom.begin(),
                                   net.headroom.end(),
                                   [](std::int64_t h) { return h == 0; });
        no_residual += std::count(net.residual.begin(),
                                  net.residual.end(), 0) > 0;
        for (const auto &w : net.weights) {
            no_cands += w.cands.empty();
            one_chunk += w.chunks == 1;
        }
        const auto sol = solveWindow(net);
        optimal += sol.status == SolveStatus::Optimal;
        feasible_only += sol.status == SolveStatus::Feasible;
    }
    EXPECT_GT(no_headroom, 0);
    EXPECT_GT(no_residual, 0);
    EXPECT_GT(no_cands, 0);
    EXPECT_GT(one_chunk, 0);
    EXPECT_GT(optimal, 0);
    EXPECT_GT(feasible_only, 0);
}

TEST(FlowWindows, WindowWithoutCandidatesPreloadsEverything)
{
    WindowNetwork net;
    net.firstLayer = net.endLayer = 3;
    net.weights = {{1, 2, {}}, {2, 3, {}}};
    net.residual = {5, 5, 5};
    net.headroom = {5, 5, 5};
    net.lambdaS = 90;
    net.muS = 10;
    const auto sol = solveWindow(net);
    EXPECT_EQ(sol.objective, 90 * 5);
    EXPECT_EQ(sol.bound, sol.objective);
    EXPECT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_EQ(sol.augmentations, 0u);
}

TEST(FlowWindows, StatusNames)
{
    EXPECT_STREQ(solveStatusName(SolveStatus::Optimal), "OPTIMAL");
    EXPECT_STREQ(solveStatusName(SolveStatus::Feasible), "FEASIBLE");
}

} // namespace
} // namespace flashmem::solver
