#include "solver/portfolio.hh"

#include <future>
#include <utility>

#include "common/thread_pool.hh"

namespace flashmem::solver {

SolverParams
portfolioConfig(const SolverParams &base, int index, PortfolioBoard *board)
{
    SolverParams p = base;
    p.board = board;
    p.portfolioIndex = index;
    if (index == 0)
        return p; // anchor: base search order, base schedule
    // Golden-ratio stride gives well-separated xoshiro seed streams;
    // any nonzero seed permutes the first-fail tie-break order.
    p.orderSeed = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(index);
    p.invertValueOrder = (index % 2) == 1;
    switch (index % 4) {
      case 1: // base restart schedule, flipped polarity
        break;
      case 2: // slower restarts: longer dives on a permuted order
        p.restartConflictBase =
            base.restartConflictBase ? 2 * base.restartConflictBase : 256;
        break;
      case 3: // no restarts: the dedicated exhaustion-proof attempt
        p.restartConflictBase = 0;
        break;
      default: // index % 4 == 0, index >= 4: faster restarts
        p.restartConflictBase = base.restartConflictBase
                                    ? base.restartConflictBase / 2 + 1
                                    : 512;
        break;
    }
    return p;
}

PortfolioOutcome
solvePortfolioConfig(const CpModel &model, const SolverParams &base,
                     int index, PortfolioBoard *board,
                     const std::vector<std::int64_t> *hint)
{
    CpSolver solver(portfolioConfig(base, index, board));
    PortfolioOutcome out;
    out.config = index;
    out.result = solver.solve(model, hint);
    if (board) {
        if (out.result.status == SolveStatus::Optimal) {
            board->publishProven(index, out.result.objective);
        } else if (out.result.feasible()) {
            std::int64_t proven = 0;
            if (board->provenObjective(&proven) &&
                out.result.objective <= proven)
                board->noteAchieved(index);
        }
    }
    return out;
}

PortfolioResult
mergePortfolio(std::vector<PortfolioOutcome> outcomes)
{
    PortfolioResult merged;

    // Winner: lowest-indexed outcome holding the best objective. When
    // any configuration proved, the best objective is B* and this is
    // the schedule-independent j* (see portfolio.hh).
    int winner = -1;
    bool anyOptimal = false;
    bool anyInfeasible = false;
    for (const PortfolioOutcome &o : outcomes) {
        anyOptimal |= o.result.status == SolveStatus::Optimal;
        anyInfeasible |= o.result.status == SolveStatus::Infeasible;
        if (!o.result.feasible())
            continue;
        if (winner < 0 ||
            o.result.objective < outcomes[winner].result.objective)
            winner = o.config;
    }

    if (winner >= 0) {
        const SolveResult &w = outcomes[winner].result;
        merged.result.values = w.values;
        merged.result.objective = w.objective;
        merged.result.improveDecisions = w.improveDecisions;
        merged.result.improvePropagations = w.improvePropagations;
        merged.result.improveBacktracks = w.improveBacktracks;
        merged.result.improveRestarts = w.improveRestarts;
        merged.result.status =
            anyOptimal ? SolveStatus::Optimal : SolveStatus::Feasible;
        merged.winningConfig = winner;
    } else {
        merged.result.status = anyInfeasible ? SolveStatus::Infeasible
                                             : SolveStatus::Unknown;
    }

    for (const PortfolioOutcome &o : outcomes) {
        merged.result.decisions += o.result.decisions;
        merged.result.propagations += o.result.propagations;
        merged.result.backtracks += o.result.backtracks;
        merged.result.restarts += o.result.restarts;
        merged.result.wallSeconds += o.result.wallSeconds;
        merged.result.timeLimited |= o.result.timeLimited;
    }
    merged.outcomes = std::move(outcomes);
    return merged;
}

PortfolioResult
solvePortfolio(const CpModel &model, const SolverParams &base, int configs,
               const std::vector<std::int64_t> *hint, int threads)
{
    if (configs <= 1) {
        PortfolioOutcome only;
        only.config = 0;
        only.result = CpSolver(base).solve(model, hint);
        std::vector<PortfolioOutcome> outcomes;
        outcomes.push_back(std::move(only));
        return mergePortfolio(std::move(outcomes));
    }

    PortfolioBoard board;
    std::vector<PortfolioOutcome> outcomes;
    outcomes.reserve(configs);
    if (threads <= 1) {
        // Sequential race: configuration 0 runs first and publishes,
        // so later configurations cancel at their first poll. The
        // merged result is byte-identical to any parallel schedule.
        for (int k = 0; k < configs; ++k)
            outcomes.push_back(
                solvePortfolioConfig(model, base, k, &board, hint));
    } else {
        ThreadPool pool(threads);
        std::vector<std::future<PortfolioOutcome>> futures;
        futures.reserve(configs);
        for (int k = 0; k < configs; ++k) {
            futures.push_back(pool.submit([&model, &base, k, &board,
                                           hint] {
                return solvePortfolioConfig(model, base, k, &board, hint);
            }));
        }
        for (auto &f : futures)
            outcomes.push_back(f.get());
    }
    return mergePortfolio(std::move(outcomes));
}

} // namespace flashmem::solver
