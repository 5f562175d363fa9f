/**
 * @file
 * LC-OPG: the Load-Capacity-aware Overlap Plan Generation solver
 * (paper Section 3).
 *
 * The OPG problem decides, for every weight w:
 *   - how many chunks join the preload set W (loaded at init),
 *   - which earlier layers transform the remaining chunks inline
 *     (x_{w,l}, constraints C0-C3),
 *   - the earliest disk-load layer z_w (constraint C1),
 * minimizing lambda * |W| + (1 - lambda) * sum(loading distances) while
 * per-layer load capacities C_l and the in-flight memory bound M_peak
 * hold (C2, C3).
 *
 * The planner follows the paper's implementation notes: incremental
 * scheduling over a rolling layer window keeps each CP-SAT instance
 * small, and a greedy warm start seeds the search. A per-window
 * decision budget is the only search limit, so a plan is a pure
 * function of (graph, device, options).
 *
 * One search per window. The paper's C4 tiers (soft-threshold
 * relaxation -> incremental preloading -> greedy backup) return a plan
 * within a time limit when the search finds none. Here no window can
 * end without a solution: its hint is the staged greedy, which assigns
 * only candidate layers, takes from copies of the same residual and
 * in-flight snapshots that bound the C3 and C2 rows, and sets z_w to
 * its earliest assigned layer, so the hint satisfies the model and the
 * search starts from it as its incumbent (a window without a solution
 * is an assertion failure). So every window is exactly one search of
 * its model from that hint under solverDecisionsPerWindow, and its
 * solution never scores worse on the window objective than the greedy
 * backup itself.
 *
 * Whole-plan generation is a three-phase pipeline (PR 2):
 *   1. stage  — sequential: each window's inputs (weight slice,
 *      candidates, greedy warm start, residual-capacity snapshot) are
 *      computed up front, with the greedy acting as the staged
 *      capacity reservation for windows that follow;
 *   2. solve  — parallel: windows solve concurrently on a ThreadPool
 *      (ParallelPlanParams::threads), each a pure function of its
 *      staged input;
 *   3. merge  — sequential, in window order: solutions commit into the
 *      authoritative capacity ledgers with clamping, so the final plan
 *      is valid and byte-identical for any thread count.
 */

#ifndef FLASHMEM_CORE_LC_OPG_HH
#define FLASHMEM_CORE_LC_OPG_HH

#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "core/overlap_plan.hh"
#include "gpusim/kernel.hh"
#include "profiler/capacity.hh"
#include "solver/solver.hh"

namespace flashmem::core {

/**
 * Parallel window-solving knobs. Whole-plan generation runs as a
 * three-phase pipeline — stage (sequential), solve (parallel on a
 * ThreadPool), merge (sequential, in window order) — so the merged
 * OverlapPlan is byte-identical for any thread count.
 */
struct ParallelPlanParams
{
    /** Worker threads for window solves; 0 = hardware_concurrency. */
    int threads = 0;
};

/** Distance-penalty weight mu of the LC-OPG objective and the
 * adaptive-fusion penalty (paper Sections 3.2 and 4.3). */
inline constexpr double kMu = 0.1;

/** OPG hyper-parameters (paper Sections 3.1-3.2). */
struct OpgParams
{
    Bytes chunkBytes = mib(1);          ///< S
    Bytes mPeak = mib(500);             ///< M_peak (memory priority)
    /** Preload-vs-distance balance; ~0.9 prioritizes low memory. */
    double lambda = 0.9;
    /** Rolling-window length in layers (incremental scheduling). */
    int windowLayers = 32;
    /** How many layers before i_w a chunk may be transformed. */
    int maxLoadDistance = 24;
    /**
     * CP-SAT search budget per window, in decisions; must be
     * positive. It is the only limit on a window search, so planning
     * is bit-deterministic across hosts and loads.
     */
    std::uint64_t solverDecisionsPerWindow = 20000;
    /**
     * Explicit preload list (paper Section 5.4: "weights can also be
     * explicitly specified by directly adding their names to the
     * preload list |W|"): weights are pinned into W, in consumer
     * order, until this fraction of total weight bytes is covered.
     * The latency-priority end of the Figure-8 trade-off.
     */
    double minPreloadFraction = 0.0;
    /**
     * Plan memo to consult for every window; nullptr means no memo.
     * A window whose (canonical model, hint, decision budget) was
     * solved before takes the stored result instead of searching
     * (PlanMemo::lookupSolve). It is exactly what the search would
     * return, so it saves host time and never changes a plan.
     */
    PlanMemo *memo = nullptr;
    /**
     * Merge-time capacity re-balancing (second merge pass): after the
     * ordered commit, weights that were budget-truncated into the
     * preload set are topped up from capacity that earlier windows
     * reserved greedily but did not use. Deterministic (sequential,
     * consumer order) and purely plan-improving: every moved chunk
     * lowers |W| without violating C2/C3, since it only consumes
     * residual capacity and in-flight headroom left in the
     * authoritative ledgers.
     */
    bool mergeRebalance = true;
    /** Window-solve parallelism (plan stays byte-identical). */
    ParallelPlanParams parallel;
};

/** Offline-stage statistics (paper Table 4 columns). */
struct PlanStats
{
    /**
     * Per-window solve summary, in window (layer) order — the order
     * futures are consumed in, so the vector is identical for any
     * solver thread count. Consumed by the obs tracing layer
     * (SolverWindow events) and available for triage.
     */
    struct WindowSolveSummary
    {
        int window = 0;
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t conflicts = 0; ///< search backtracks
    };

    double processNodesSeconds = 0.0;   ///< graph analysis + capacities
    double stageSeconds = 0.0;          ///< window staging (sequential)
    double buildModelSeconds = 0.0;     ///< CP model construction (CPU, summed)
    /** Wall-clock of the (parallel) solve phase — the Table-4 column. */
    double solveSeconds = 0.0;
    /** Per-window solve time summed across workers (CPU-ish). */
    double solveCpuSeconds = 0.0;
    double mergeSeconds = 0.0;          ///< ordered commit + validation bookkeeping
    solver::SolveStatus overallStatus = solver::SolveStatus::Optimal;
    int windows = 0;
    int optimalWindows = 0;
    int feasibleWindows = 0;
    /** @name Always 0: every window is one search (file comment, "One
     * search per window"). Kept because perfbench reports them as
     * lc_opg.soft_relaxations, lc_opg.greedy_windows and
     * solver.restarts. @{ */
    int softRelaxations = 0;
    int greedyWindows = 0;
    std::uint64_t solverRestarts = 0;
    /** @} */
    int threads = 1;                    ///< worker threads used to solve
    /** @name Merge-time re-balancing (second merge pass). @{ */
    std::int64_t rebalancedChunks = 0;  ///< chunks moved W -> streamed
    int rebalancedWeights = 0;          ///< truncated weights topped up
    /** @} */
    std::uint64_t solverDecisions = 0;
    /** Windows completed from the plan memo instead of a search (the
     * only counter a reuse changes). */
    std::uint64_t memoHits = 0;
    std::uint64_t solverPropagations = 0; ///< constraint revisions
    std::uint64_t solverConflicts = 0;    ///< search backtracks
    std::vector<WindowSolveSummary> windowSummaries;
};

/** Produces overlap plans for one graph on one device. */
class LcOpgPlanner
{
  public:
    /**
     * @param g graph to plan (post-fusion).
     * @param capacity provider of per-layer load capacities.
     * @param params hyper-parameters.
     *
     * The unnamed gpusim::KernelModel parameter is unused: every
     * per-layer cost the planner reads comes through @p capacity. It
     * stays only because perfbench, which is frozen, passes one; it
     * goes with the next change to the benchmark.
     */
    LcOpgPlanner(const graph::Graph &g,
                 const profiler::CapacityProvider &capacity,
                 const gpusim::KernelModel &, OpgParams params = {});

    /** Run LC-OPG; always returns a valid plan. */
    OverlapPlan plan(PlanStats *stats = nullptr);

  private:
    struct WindowResult
    {
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t conflicts = 0; ///< search backtracks
        double buildSeconds = 0.0;
        double solveSeconds = 0.0;
        bool memoHit = false;
    };

    /**
     * Greedy latest-feasible chunk placement for the given weights;
     * returns per-weight (assignments, preload leftovers). Used as the
     * warm start and as the staged capacity reservation that decouples
     * windows for parallel solving.
     */
    struct GreedyOut
    {
        // Parallel to the weight list handed in.
        std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
            assignments;
        std::vector<std::int64_t> preload;
    };

    /**
     * Everything one window solve needs, captured up front by the
     * sequential staging pass: the weight slice, candidate layers,
     * greedy warm start, and snapshots of the staged residual-capacity
     * and in-flight ledgers. Once staged, solveWindow() is a pure
     * function of this struct (plus the read-only planner fields), so
     * windows solve concurrently and deterministically.
     */
    struct WindowInput
    {
        graph::NodeId start = 0;
        graph::NodeId end = 0;
        std::vector<graph::WeightId> weights;       // consumer order
        std::vector<std::vector<graph::NodeId>> cands;
        graph::NodeId minCand = 0;
        GreedyOut greedy;
        std::vector<std::int64_t> residual;         // staged snapshot
        std::vector<std::int64_t> inflight;         // staged snapshot
    };

    /** Extracted window solution + stats. */
    struct WindowOutput
    {
        WindowResult result;
        std::vector<std::int64_t> preload;          // per weight
        std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
            assign;
        std::vector<graph::NodeId> z;
    };

    /** Analyze graph: per-layer capacities, chunk counts, pinned W. */
    void processNodes();

    /**
     * Stage one window [start, end): collect its weights/candidates,
     * compute the greedy warm start against the staging ledgers, then
     * reserve the greedy's capacity in them (so later windows stage
     * against this window's expected usage).
     */
    WindowInput stageWindow(graph::NodeId start, graph::NodeId end,
                            std::vector<std::int64_t> &staging_residual,
                            std::vector<std::int64_t> &staging_inflight)
        const;

    /**
     * One window's CP model, built on the calling thread: the window
     * model (C0-C3) and its greedy warm-start hint. Once built it is
     * immutable, so a pool worker can solve it.
     */
    struct WindowModel
    {
        solver::CpModel model;
        std::vector<std::int64_t> hint;
        std::vector<solver::VarId> y_vars;
        std::vector<solver::VarId> z_vars; // -1 when fully preloaded
        std::vector<std::vector<solver::VarId>> x_vars;
        double buildSeconds = 0.0;
    };

    /**
     * Per-window state of the solve phase: plan() submits one search
     * per window to the shared pool and consumes the results in
     * window order.
     */
    struct WindowSolveState
    {
        WindowModel wm;
        std::future<solver::SolveResult> future;
        /** The window's finished-solve key, and its stored result on a
         * hit (no task is submitted then). */
        SolveKey solveKey;
        std::optional<solver::SolveResult> reused;
    };

    /** Build the model for @p in (pure; see WindowModel). */
    WindowModel buildWindowModel(const WindowInput &in) const;

    /** Fill @p out from the solve result @p r of window @p in: its
     * stats and its extracted solution. */
    void extractWindow(const WindowInput &in, const WindowModel &wm,
                       const solver::SolveResult &r,
                       WindowOutput &out) const;

    /**
     * Merge one window's solution into the plan and the authoritative
     * residual/in-flight ledgers, in window order. Assignments that
     * exceed the real residual capacity (possible when a window's
     * solver used more of a shared layer than the greedy reservation
     * staged for it) are clamped, with the overflow moved to the
     * preload set — validity is unconditional.
     */
    void commitWindow(const WindowInput &in, const WindowOutput &out,
                      OverlapPlan &plan);

    /**
     * Second merge pass (cross-window capacity re-balancing): walk the
     * committed plan in consumer order and move budget-truncated
     * preload chunks into residual capacity that earlier windows
     * reserved but did not use. Runs after every window committed, so
     * the authoritative ledgers are final; every top-up is validated
     * against them (and the in-flight headroom) before it lands.
     */
    void rebalanceMerge(OverlapPlan &plan, PlanStats &stats);

    GreedyOut greedyAssign(
        const std::vector<graph::WeightId> &weights,
        const std::vector<std::int64_t> &residual_capacity,
        const std::vector<std::int64_t> &inflight_used) const;

    const graph::Graph &g_;
    const profiler::CapacityProvider &capacity_;
    OpgParams params_;
    WeightSlicer slicer_;

    // processNodes() outputs.
    std::vector<std::int64_t> capacity_chunks_;      // C_l per layer
    std::vector<std::int64_t> chunk_count_;          // T(w) per weight
    std::vector<bool> pinned_preload_;               // explicit W list
    // Authoritative cross-window ledgers (written only at merge).
    std::vector<std::int64_t> residual_capacity_;    // C_l minus spent
    std::vector<std::int64_t> inflight_used_;        // M_peak usage/layer
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_LC_OPG_HH
