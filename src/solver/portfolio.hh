/**
 * @file
 * Deterministic portfolio search: K solver configurations race the
 * same model, sharing a monotone bound board for cancellation.
 *
 * Determinism contract (the "bound-sharing safety argument", see
 * src/solver/README.md for the full proof sketch):
 *
 *   - Each configuration's *uninterfered* search trajectory is a pure
 *     function of (model, hint, config). The board never injects
 *     bounds into a running search — it only CANCELS searches, so an
 *     interfered run is always a prefix of the uninterfered one.
 *   - The board publishes at most one objective value: the proven
 *     optimum B*. Every prover publishes the same B* (optimality is
 *     unique in value), so racing publications are idempotent.
 *   - A configuration is cancelled only when a strictly lower-indexed
 *     configuration has *achieved* B*. Achieving B* under
 *     cancellation implies achieving it uninterfered (prefix), so the
 *     lowest-indexed achiever j* is timing-independent: it can never
 *     be cancelled (no lower achiever exists), runs uninterfered to
 *     its first B*-incumbent, and its values freeze there (B* cannot
 *     be improved).
 *   - The merge picks the winner as the lowest-indexed outcome whose
 *     objective equals the best found — exactly j* whenever any
 *     configuration proves, and the deterministic min-index best
 *     otherwise (no publication, hence no interference, occurs).
 *   - Overall Optimal status is timing-independent: if any
 *     configuration proves uninterfered, then in every schedule some
 *     configuration proves (a prover is only ever cancelled after a
 *     publication, which itself requires a completed proof).
 *
 * Raw work counters of cancelled configurations remain
 * timing-dependent and are exposed for diagnostics only; everything
 * that feeds plans, memo entries, or traces comes from the winner's
 * improvement-snapshot counters, which live in the uninterfered
 * prefix.
 */

#ifndef FLASHMEM_SOLVER_PORTFOLIO_HH
#define FLASHMEM_SOLVER_PORTFOLIO_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "solver/solver.hh"

namespace flashmem::solver {

/**
 * Shared cancellation board for one portfolio race. Monotone by
 * construction: the proven objective is written at most with one
 * value (B*), and the achiever index only decreases. Publication
 * order therefore cannot change what is eventually observable, which
 * is what makes cancellation timing-independent at the plan level.
 */
class PortfolioBoard
{
  public:
    /** Record that @p config proved @p objective optimal. */
    void
    publishProven(int config, std::int64_t objective)
    {
        // proven_ is written before the hasProven_ release-store so a
        // reader that observes the flag also observes the value.
        proven_.store(objective, std::memory_order_relaxed);
        hasProven_.store(true, std::memory_order_release);
        noteAchieved(config);
    }

    /** True (and *out set) once any configuration proved optimality. */
    bool
    provenObjective(std::int64_t *out) const
    {
        if (!hasProven_.load(std::memory_order_acquire))
            return false;
        *out = proven_.load(std::memory_order_relaxed);
        return true;
    }

    /** Record that @p config holds an incumbent matching B*. */
    void
    noteAchieved(int config)
    {
        int cur = achiever_.load(std::memory_order_relaxed);
        while (config < cur &&
               !achiever_.compare_exchange_weak(
                   cur, config, std::memory_order_release,
                   std::memory_order_relaxed)) {
        }
    }

    /** True when a strictly lower-indexed achiever exists. */
    bool
    cancelled(int config) const
    {
        return achiever_.load(std::memory_order_acquire) < config;
    }

  private:
    // FMLINT(allow:cross-thread-state) portfolio bound sharing: flag only ever flips false->true (monotone), so observation order cannot change the merged result
    std::atomic<bool> hasProven_{false};
    // FMLINT(allow:cross-thread-state) portfolio bound sharing: written with at most one value (the unique proven optimum B*), so racing writers are idempotent
    std::atomic<std::int64_t> proven_{0};
    // FMLINT(allow:cross-thread-state) portfolio bound sharing: min-CAS only ever decreases, and cancellation requires a strictly lower achiever, so the lowest achiever is schedule-independent
    std::atomic<int> achiever_{std::numeric_limits<int>::max()};
};

/** One configuration's finished (or cancelled) solve. */
struct PortfolioOutcome
{
    int config = 0;
    SolveResult result;
};

/** Deterministically merged portfolio result (see file comment). */
struct PortfolioResult
{
    /**
     * Winner's values/objective and improvement snapshots; status
     * merged across configurations (Optimal if any proved); raw
     * decision/propagation/backtrack/restart counters and wallSeconds
     * summed across configurations as total-work diagnostics;
     * timeLimited set when any configuration stopped on the clock.
     */
    SolveResult result;
    int winningConfig = 0;
    /** Per-configuration outcomes in configuration (submission) order. */
    std::vector<PortfolioOutcome> outcomes;
};

/**
 * Derive configuration @p index from @p base and attach the board.
 * Index 0 is @p base verbatim (the byte-compatibility anchor: a
 * one-configuration portfolio reproduces a plain solve). Higher
 * indices permute the first-fail tie-break order (orderSeed), flip
 * the value-ordering polarity on odd indices, and vary the restart
 * schedule — index 3 (mod 4) disables restarts entirely so one
 * configuration always attempts an uninterrupted exhaustion proof.
 */
SolverParams portfolioConfig(const SolverParams &base, int index,
                             PortfolioBoard *board);

/**
 * Run configuration @p index to completion against @p model and
 * report the outcome to @p board (publish on proof; note achievement
 * when the result matches an already-proven optimum). Pure apart
 * from board traffic — safe to run concurrently with other indices.
 */
PortfolioOutcome solvePortfolioConfig(
    const CpModel &model, const SolverParams &base, int index,
    PortfolioBoard *board, const std::vector<std::int64_t> *hint);

/**
 * Merge per-configuration outcomes (must be in configuration order)
 * into the deterministic portfolio result. Pure.
 */
PortfolioResult mergePortfolio(std::vector<PortfolioOutcome> outcomes);

/**
 * Convenience driver: race @p configs configurations of @p base over
 * @p model on an internal pool of @p threads workers (threads <= 1
 * runs them sequentially — the merged result is byte-identical either
 * way). configs <= 1 degenerates to a plain CpSolver::solve.
 */
PortfolioResult solvePortfolio(const CpModel &model,
                               const SolverParams &base, int configs,
                               const std::vector<std::int64_t> *hint,
                               int threads);

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_PORTFOLIO_HH
