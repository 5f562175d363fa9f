/**
 * @file
 * Branch-and-bound CP solver with interval (bounds) propagation.
 *
 * The search keeps a trail-based undo stack (only changed bounds are
 * recorded and rewound on backtrack), propagates through a watch-list
 * dirty queue (only constraints whose variables changed are revisited),
 * maintains the objective lower bound incrementally, and selects
 * variables first-fail from a heap with activity tie-breaking
 * (src/solver/README.md).
 *
 * Search: first-fail variable selection, objective-aware value ordering,
 * incumbent-driven bounding, wall-clock + decision limits. Statuses
 * mirror CP-SAT: Optimal (search exhausted with incumbent), Feasible
 * (limit hit with incumbent), Infeasible (exhausted without incumbent),
 * Unknown (limit hit without incumbent).
 */

#ifndef FLASHMEM_SOLVER_SOLVER_HH
#define FLASHMEM_SOLVER_SOLVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "solver/model.hh"

namespace flashmem::solver {

class PortfolioBoard; // solver/portfolio.hh

/** Terminal state of one solve() call. */
enum class SolveStatus { Optimal, Feasible, Infeasible, Unknown };

/** Human-readable status name ("OPTIMAL", "FEASIBLE", ...). */
const char *solveStatusName(SolveStatus status);

/** Search limits and tunables. */
struct SolverParams
{
    double timeLimitSeconds = 150.0;  ///< paper Table 4 uses 150 s
    std::uint64_t maxDecisions = 0;   ///< 0 = unlimited
    /**
     * Luby restart base, in conflicts (0 disables).
     * Restart i aborts the current dive after luby(i) * base conflicts
     * and re-descends from the root with solution phase saving: value
     * ordering follows the incumbent, so restarted searches keep (and
     * typically improve) incumbent quality under the same decision
     * budget. Restarting is conflict-counted, hence deterministic.
     * The strategy stays complete: the limit grows without bound, so
     * an exhaustive pass eventually fits inside one restart window —
     * but proving optimality can take more decisions than a single
     * uninterrupted dive, which is why LC-OPG only switches restarts
     * on for budget-truncated (FEASIBLE) window solves.
     */
    std::uint64_t restartConflictBase = 0;
    /**
     * @name Deterministic portfolio hooks (solver/portfolio.hh).
     *
     * orderSeed != 0 replaces the first-fail heap's final var-id
     * tie-break with a seeded permutation of the variable ids —
     * search order diversity without touching the heuristics.
     * invertValueOrder flips the branching polarity (low-first <->
     * high-first, including the saved solution phase under restarts).
     * board/portfolioIndex attach this solve to a cancellation board:
     * the search stops early when a lower-indexed configuration has
     * achieved the proven optimum. The board never injects bounds, so
     * an attached run is always a prefix of the detached one.
     * @{
     */
    std::uint64_t orderSeed = 0;
    bool invertValueOrder = false;
    PortfolioBoard *board = nullptr; ///< non-owning; null = detached
    int portfolioIndex = 0;
    /** @} */
};

/** Result of a solve: status, assignment, objective, search stats. */
struct SolveResult
{
    SolveStatus status = SolveStatus::Unknown;
    std::vector<std::int64_t> values;
    std::int64_t objective = 0;
    std::uint64_t decisions = 0;
    /** Constraint revisions (linear rows and implications). */
    std::uint64_t propagations = 0;
    std::uint64_t backtracks = 0;
    /** Luby restarts taken (restartConflictBase > 0). */
    std::uint64_t restarts = 0;
    double wallSeconds = 0.0;
    /** Stopped early by the portfolio cancellation board. */
    bool cancelled = false;
    /**
     * Stopped by the wall-clock limit (timeLimitSeconds). Such a
     * result depends on host speed, so callers that must stay
     * host-independent count it and never cache it.
     */
    bool timeLimited = false;
    /**
     * @name Counters snapshotted at the last incumbent improvement.
     *
     * Unlike the raw totals above (which, under portfolio
     * cancellation, depend on when the stop lands), these freeze at
     * the moment the final incumbent was found — inside the
     * uninterfered prefix of the search — so the winning
     * configuration's snapshots are byte-deterministic for any thread
     * count. All zero when the warm-start hint was never improved.
     * @{
     */
    std::uint64_t improveDecisions = 0;
    std::uint64_t improvePropagations = 0;
    std::uint64_t improveBacktracks = 0;
    std::uint64_t improveRestarts = 0;
    /** @} */

    bool
    feasible() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }

    std::int64_t value(VarId v) const { return values.at(v); }
};

/** Branch-and-bound solver over a CpModel. */
class CpSolver
{
  public:
    explicit CpSolver(SolverParams params = {}) : params_(params) {}

    /**
     * Solve @p model, optionally warm-starting from @p hint (a full
     * assignment used as the initial incumbent if it is feasible).
     */
    SolveResult solve(const CpModel &model,
                      const std::vector<std::int64_t> *hint = nullptr);

  private:
    SolverParams params_;
};

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_SOLVER_HH
