/**
 * @file
 * Tests for the window flow (src/solver/flow.hh) on generated tiny
 * windows: 2-3 weights of at most 3 chunks over 2-4 layers, with zero
 * headroom, zero residual capacity, weights without candidates and
 * one-chunk weights among them. A brute-force enumerator over every
 * C0-C3-feasible x checks, per seed, that the flow's cost is the
 * minimum of the same linear cost, that bound <= exact optimum <=
 * shipped objective, and that the shipped plan satisfies C0-C3.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
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
