/**
 * @file
 * One LC-OPG planning window solved as the min-cost flow it is (paper
 * Section 3, constraints C0-C3).
 *
 * Inside a window the model, set aside z_w and C1, is a network flow
 * (src/solver/README.md has the derivation):
 *   - the layers form a line, and arc p -> p+1 carries the in-flight
 *     headroom layer p leaves unused (C2);
 *   - a chunk of weight k transformed at layer l leaves the line at l
 *     and rejoins it at k's consumer c_k: l -> B_l -> E_k -> c_k, where
 *     l -> B_l holds layer l's residual load capacity (C3) and
 *     E_k -> c_k holds the weight's chunk count T_k (C0, with the
 *     preload y_k as the slack);
 *   - a streamed chunk costs (c_k - l - 1) - lambda*S plus
 *     mu*S*(c_k - l)/T_k, which under-estimates the z_w term of the
 *     window objective.
 *
 * solveWindow() takes the network as plain data, solves it with
 * successive shortest paths (one topological pass for the potentials,
 * then Dijkstra, stopped at the sink; bypasses of positive cost are
 * left out, since no min-cost flow uses them), and scores the flow plan
 * on the exact window objective. Costs are integers and arcs are
 * visited in a fixed order, so a window's result is a pure function of
 * its input.
 */

#ifndef FLASHMEM_SOLVER_FLOW_HH
#define FLASHMEM_SOLVER_FLOW_HH

#include <cstdint>
#include <vector>

namespace flashmem::solver {

/** Arc costs are the window objective's per-chunk terms times this
 * factor, with the mu term rounded down. */
inline constexpr std::int64_t kFlowCostScale = 64;

/** How a window's shipped objective relates to its flow bound. */
enum class SolveStatus
{
    Optimal,  ///< the shipped objective equals the bound
    Feasible, ///< the shipped objective is above the bound
};

/** "OPTIMAL" or "FEASIBLE". */
const char *solveStatusName(SolveStatus status);

/** One weight of a window. */
struct WindowWeight
{
    std::int32_t consumer = 0; ///< c_k: the layer that reads the weight
    std::int64_t chunks = 0;   ///< T_k
    /** Layers that may transform a chunk, ascending, all before
     * @c consumer and inside [firstLayer, endLayer). */
    std::vector<std::int32_t> cands;
};

/**
 * One window's network as plain data. @c residual and @c headroom are
 * indexed by layer and cover at least [firstLayer, endLayer):
 * residual[l] is the load capacity layer l has left (C3), headroom[p]
 * the chunks layer p can still hold in flight (C2).
 */
struct WindowNetwork
{
    std::int32_t firstLayer = 0; ///< first line node: the first candidate
    std::int32_t endLayer = 0;   ///< last line node: the window's end
    std::vector<WindowWeight> weights;
    std::vector<std::int64_t> residual;
    std::vector<std::int64_t> headroom;
    std::int64_t lambdaS = 0; ///< preload cost of one chunk
    std::int64_t muS = 0;     ///< reward per layer of loading distance
};

/** x[k][j]: chunks of weight k transformed at its candidate j. */
using WindowPlan = std::vector<std::vector<std::int64_t>>;

/** What solveWindow() ships. */
struct WindowSolution
{
    WindowPlan x{};                   ///< the flow plan
    std::int64_t objective = 0;       ///< window objective of x
    /** Minimum network cost, in kFlowCostScale units. */
    std::int64_t flowCost = 0;
    /** Lower bound on the window objective: the constant terms plus
     * flowCost / kFlowCostScale, rounded up. */
    std::int64_t bound = 0;
    std::uint64_t augmentations = 0; ///< shortest paths augmented
    SolveStatus status = SolveStatus::Optimal;
};

/**
 * Solve @p net's min-cost flow and score its plan on the exact window
 * objective lambdaS * sum(y) + sum(x * (c - l - 1)) - muS * sum(z),
 * where y_k = T_k - sum_j x[k][j] and z_k is k's first used candidate
 * (c_k when none is used), summed over the weights that have
 * candidates. The plan satisfies C0-C3 on @p net, and its objective is
 * never below the bound.
 */
WindowSolution solveWindow(const WindowNetwork &net);

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_FLOW_HH
