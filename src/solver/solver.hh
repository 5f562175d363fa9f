/**
 * @file
 * Branch-and-bound CP solver with interval (bounds) propagation.
 *
 * The search keeps a trail-based undo stack (only changed bounds are
 * recorded and rewound on backtrack), propagates through a watch-list
 * dirty queue (only constraints whose variables changed are revisited),
 * keeps the objective lower bound and each row's sum range current by
 * delta on every tighten and undo, revises a row over its unfixed terms
 * only, and selects variables from an indexed heap
 * (src/solver/README.md).
 *
 * Search: first-fail variable selection (smallest domain, then smallest
 * variable id), objective-aware value ordering,
 * incumbent-driven bounding, and a decision budget as the only limit,
 * so a result never depends on host speed. Statuses mirror CP-SAT:
 * Optimal (search exhausted with incumbent), Feasible (budget spent
 * with incumbent), Infeasible (exhausted without incumbent), Unknown
 * (budget spent without incumbent).
 */

#ifndef FLASHMEM_SOLVER_SOLVER_HH
#define FLASHMEM_SOLVER_SOLVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "solver/model.hh"

namespace flashmem::solver {

/** Terminal state of one solve() call. */
enum class SolveStatus { Optimal, Feasible, Infeasible, Unknown };

/** Human-readable status name ("OPTIMAL", "FEASIBLE", ...). */
const char *solveStatusName(SolveStatus status);

/** Search budget and tunables. */
struct SolverParams
{
    /** Decision budget, the only search limit; 0 = run to exhaustion. */
    std::uint64_t maxDecisions = 0;
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
    double wallSeconds = 0.0; ///< reported only; no limit reads it

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
