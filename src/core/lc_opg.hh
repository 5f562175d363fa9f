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
 * scheduling over a rolling layer window, with a greedy latest-feasible
 * placement staged per window as its capacity reservation.
 *
 * One flow per window. Inside a window the model, set aside z_w and
 * C1, is a min-cost network flow (src/solver/flow.hh): layers form a
 * line whose arcs hold the unused in-flight headroom (C2), and a
 * streamed chunk is a bypass through its layer's residual capacity
 * (C3) to its weight's consumer (C0). One integral flow solve gives a
 * plan and a lower bound on the window objective. The window ships
 * whichever of the flow plan and the staged greedy scores lower on the
 * exact objective (the greedy on a tie), so no window scores worse
 * than its greedy, and a window is Optimal when its objective meets
 * the bound. A plan is a pure function of (graph, device, options).
 *
 * Whole-plan generation is a three-phase pipeline (PR 2):
 *   1. stage  — sequential: each window's inputs (weight slice,
 *      candidates, greedy placement, residual-capacity snapshot) are
 *      computed up front, with the greedy acting as the staged
 *      capacity reservation for windows that follow;
 *   2. solve  — parallel: window flows solve concurrently on a
 *      ThreadPool (ParallelPlanParams::threads), each a pure function
 *      of its staged input;
 *   3. merge  — sequential, in window order: solutions commit into the
 *      authoritative capacity ledgers with clamping, so the final plan
 *      is valid and byte-identical for any thread count.
 */

#ifndef FLASHMEM_CORE_LC_OPG_HH
#define FLASHMEM_CORE_LC_OPG_HH

#include <cstdint>
#include <vector>

#include "core/overlap_plan.hh"
#include "gpusim/kernel.hh"
#include "profiler/capacity.hh"
#include "solver/flow.hh"

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
     * Explicit preload list (paper Section 5.4: "weights can also be
     * explicitly specified by directly adding their names to the
     * preload list |W|"): weights are pinned into W, in consumer
     * order, until this fraction of total weight bytes is covered.
     * The latency-priority end of the Figure-8 trade-off.
     */
    double minPreloadFraction = 0.0;
    /**
     * Ignored: the planner keeps no memo, because solving a window's
     * flow again is cheap (src/solver/README.md).
     * Kept because perfbench, which is frozen, sets it; it goes with
     * the next change to the benchmark.
     */
    PlanMemo *memo = nullptr;
    /**
     * Merge-time capacity re-balancing (second merge pass): after the
     * ordered commit, weights left with chunks in the preload set are
     * topped up from capacity that earlier windows
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
     * (SolverWindow events) and available for triage. A window
     * without weights reads all zeros.
     */
    struct WindowSolveSummary
    {
        int window = 0;
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        std::int64_t objective = 0;       ///< shipped window objective
        std::int64_t greedyObjective = 0; ///< the staged greedy's
        std::int64_t bound = 0;           ///< flow lower bound
        std::uint64_t augmentations = 0;  ///< flow shortest paths
    };

    double processNodesSeconds = 0.0;   ///< graph analysis + capacities
    double stageSeconds = 0.0;          ///< window staging (sequential)
    double buildModelSeconds = 0.0;     ///< network inputs (CPU, summed)
    /** Wall-clock of the (parallel) solve phase — the Table-4 column. */
    double solveSeconds = 0.0;
    /** Per-window solve time summed across workers (CPU-ish). */
    double solveCpuSeconds = 0.0;
    double mergeSeconds = 0.0;          ///< ordered commit + validation bookkeeping
    solver::SolveStatus overallStatus = solver::SolveStatus::Optimal;
    int windows = 0;
    int optimalWindows = 0;
    int feasibleWindows = 0;
    /** @name Always 0: every window is one flow (file comment, "One
     * flow per window"). Kept because perfbench reports them as
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
    /** Flow shortest paths augmented, summed over windows: the
     * planner's unit of work (perfbench's solver.decisions). */
    std::uint64_t solverDecisions = 0;
    /** @name Always 0: there is no memo and no search. Kept because
     * perfbench reports them as lc_opg.memo_hits, solver.propagations
     * and solver.conflicts. @{ */
    std::uint64_t memoHits = 0;
    std::uint64_t solverPropagations = 0;
    std::uint64_t solverConflicts = 0;
    /** @} */
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
    /**
     * Greedy latest-feasible chunk placement for the given weights;
     * returns per-weight (assignments, preload leftovers). Used as the
     * quality floor of every window and as the staged capacity
     * reservation that decouples windows for parallel solving.
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
     * greedy placement, and snapshots of the staged residual-capacity
     * and in-flight ledgers. Once staged, a window's solve is a pure
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

    /** The shipped window plan, as commitWindow() merges it. */
    struct WindowOutput
    {
        PlanStats::WindowSolveSummary summary;
        double buildSeconds = 0.0;
        double solveSeconds = 0.0;
        std::vector<std::int64_t> preload;          // per weight
        /** Per weight, (layer, chunks) in layer order. */
        std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
            assign;
    };

    /** Analyze graph: per-layer capacities, chunk counts, pinned W. */
    void processNodes();

    /**
     * Stage one window [start, end): collect its weights/candidates,
     * compute the greedy placement against the staging ledgers, then
     * reserve the greedy's capacity in them (so later windows stage
     * against this window's expected usage).
     */
    WindowInput stageWindow(graph::NodeId start, graph::NodeId end,
                            std::vector<std::int64_t> &staging_residual,
                            std::vector<std::int64_t> &staging_inflight)
        const;

    /** @p in as the flow solver's plain-data window network. */
    solver::WindowNetwork windowNetwork(const WindowInput &in) const;

    /** @p in's staged greedy placement, per candidate. */
    static solver::WindowPlan greedyPlan(const WindowInput &in);

    /** Fill @p out with window @p in's shipped plan from @p sol. */
    void extractWindow(const WindowInput &in,
                       const solver::WindowSolution &sol,
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
     * committed plan in consumer order and move preload chunks into
     * residual capacity that earlier windows
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
