/**
 * @file
 * Table 4 reproduction: LC-OPG offline time breakdown (process nodes /
 * build CP model / solve) for GPT-Neo S/1.3B/2.7B and the synthetic
 * ViT-8B, Llama2-13B, Llama2-70B, each under the paper's 150-second
 * limit. Absolute times differ from the authors' 128-thread
 * workstation; the checks are (a) every plan lands OPTIMAL or FEASIBLE,
 * and (b) cost grows with model scale: Llama2-70B takes more than twice
 * GPTN-S's solver decisions.
 *
 * Part 1 runs the CP solver on eight OPG-window-shaped instances: three
 * solved to exhaustion (status OPTIMAL, a fixed optimum) and five
 * truncated at a 400k-decision budget at LC-OPG window scale. Per
 * instance it reports status, objective and the deterministic work
 * counters (decisions, propagations, backtracks) next to wall time;
 * the regression gate holds the counters exactly, so a change that
 * makes the search do more work fails on any host. Part 2 also prints
 * Llama2-70B planner wall time at 1, 2 and 4 threads. Parts 3 and 4
 * demonstrate the plan memo (re-planning an unchanged model reuses
 * its finished window solves) and merge-time re-balancing.
 *
 * With an argument, also writes the host-independent results as JSON
 * (consumed by tools/run_benchmarks.sh -> BENCH_table4.json): statuses,
 * objectives, work counters, memo hits and re-balancing figures. Every
 * host time is printed only; perfbench's zoo_compile compile_s and
 * lc_opg.* spans measure planner time.
 */

#include "bench/harness.hh"

#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/lc_opg.hh"
#include "profiler/capacity.hh"
#include "solver/solver.hh"

namespace {

using namespace flashmem;
using solver::CpModel;
using solver::CpSolver;
using solver::LinearTerm;
using solver::SolveResult;
using solver::SolverParams;
using solver::VarId;

/** One CP instance plus its greedy warm-start hint. */
struct Instance
{
    std::string name;
    CpModel model;
    std::vector<std::int64_t> hint;
    std::uint64_t decisionBudget = 0; ///< 0 = run to exhaustion
};

/**
 * OPG-window-shaped instance: per-weight coverage equalities
 * (y_w + sum_l x_{w,l} = T(w)), per-layer capacity rows, z_w
 * implication chains, and the lambda/mu objective — the same structure
 * LcOpgPlanner::planWindow() emits, at a parameterizable scale.
 */
Instance
opgWindowInstance(const std::string &name, int weights, int layers,
                  int tw, int cap, unsigned seed,
                  std::uint64_t decision_budget)
{
    Rng rng(seed);
    Instance inst;
    inst.name = name;
    inst.decisionBudget = decision_budget;
    CpModel &m = inst.model;

    std::vector<std::vector<VarId>> x(weights);
    std::vector<VarId> y(weights), z(weights);
    std::vector<int> consumer(weights);
    std::vector<std::int64_t> residual(layers, cap);
    for (int w = 0; w < weights; ++w)
        consumer[w] = 1 + static_cast<int>(rng.uniformInt(1, layers - 1));

    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        y[w] = m.newIntVar(0, tw);
        row.push_back({y[w], 1});
        for (int l = 0; l < consumer[w]; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w].back(), 1});
        }
        m.addEquality(row, tw);
        z[w] = m.newIntVar(0, consumer[w]);
        for (int l = 0; l < consumer[w]; ++l)
            m.addImplicationGeLe(x[w][l], 1, z[w], l);
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w) {
            if (l < consumer[w])
                col.push_back({x[w][l], 1});
        }
        if (!col.empty())
            m.addLessOrEqual(col, cap);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        obj.push_back({y[w], 90}); // lambda-weighted preload cost
        for (int l = 0; l < consumer[w]; ++l)
            obj.push_back({x[w][l], consumer[w] - l - 1});
        obj.push_back({z[w], -10}); // mu-weighted distance reward
    }
    m.minimize(obj);

    // Greedy latest-feasible hint, mirroring LcOpgPlanner's warm start.
    std::vector<std::int64_t> hint(m.varCount(), 0);
    for (int w = 0; w < weights; ++w) {
        std::int64_t rem = tw;
        std::int64_t zval = consumer[w];
        for (int l = consumer[w] - 1; l >= 0 && rem > 0; --l) {
            std::int64_t take =
                std::min<std::int64_t>(rem, residual[l]);
            if (take <= 0)
                continue;
            residual[l] -= take;
            hint[x[w][l]] = take;
            rem -= take;
            zval = l;
        }
        hint[y[w]] = rem;
        hint[z[w]] = zval;
    }
    inst.hint = std::move(hint);
    return inst;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace flashmem;
    using namespace flashmem::bench;

    bool ok = true;
    std::ostringstream json;
    json << "{\n";

    // ------------------------------------------------------------------
    // Part 1: the CP solver on OPG-window-shaped models. Exhaustive
    // instances must prove their optimum; budgeted instances must end
    // no worse than their warm-start hint.
    // ------------------------------------------------------------------
    printHeading(std::cout, "CP solver: OPG-window instances");

    std::vector<Instance> suite;
    // Run-to-OPTIMAL instances.
    suite.push_back(opgWindowInstance("opt-w8-l5", 8, 5, 2, 5, 1, 0));
    suite.push_back(opgWindowInstance("opt-w9-l5", 9, 5, 2, 6, 7, 0));
    suite.push_back(opgWindowInstance("opt-w8-l4", 8, 4, 2, 6, 11, 0));
    // Fixed-decision-budget instances at LC-OPG window scale.
    suite.push_back(
        opgWindowInstance("win-w24-l8", 24, 8, 4, 14, 3, 400000));
    suite.push_back(
        opgWindowInstance("win-w32-l8", 32, 8, 4, 18, 5, 400000));
    suite.push_back(
        opgWindowInstance("win-w40-l10", 40, 10, 6, 26, 4, 400000));
    suite.push_back(
        opgWindowInstance("win-w56-l12", 56, 12, 6, 30, 9, 400000));
    suite.push_back(
        opgWindowInstance("win-w72-l14", 72, 14, 6, 36, 13, 400000));

    Table cmp({"Instance", "Status", "Objective", "Decisions",
               "Propagations", "Backtracks", "Wall (s)"});
    bool solver_ok = true;
    json << "  \"solver_comparison\": {\n    \"instances\": [\n";
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &inst = suite[i];
        SolverParams p;
        p.maxDecisions = inst.decisionBudget;
        auto r = CpSolver(p).solve(inst.model, &inst.hint);
        if (inst.decisionBudget == 0) {
            // Run to exhaustion: the optimum is proven.
            solver_ok &= r.status == solver::SolveStatus::Optimal;
        } else {
            // Budget-truncated anytime result: the incumbent is seeded
            // from the hint, so it may not end worse than the hint.
            std::int64_t hint_obj = 0;
            for (const auto &t : inst.model.objective())
                hint_obj += t.coef * inst.hint[t.var];
            solver_ok &= r.feasible() && r.objective <= hint_obj;
        }
        cmp.addRow({inst.name, solver::solveStatusName(r.status),
                    std::to_string(r.objective),
                    std::to_string(r.decisions),
                    std::to_string(r.propagations),
                    std::to_string(r.backtracks),
                    formatDouble(r.wallSeconds, 3)});
        json << "      {\"name\": \"" << inst.name << "\", \"status\": \""
             << solver::solveStatusName(r.status)
             << "\", \"objective\": " << r.objective
             << ", \"decisions\": " << r.decisions
             << ", \"propagations\": " << r.propagations
             << ", \"backtracks\": " << r.backtracks << "}"
             << (i + 1 < suite.size() ? "," : "") << "\n";
    }
    cmp.print(std::cout);
    ok &= solver_ok;
    std::cout << "\nExhaustive instances OPTIMAL, budgeted instances no "
                 "worse than their hint: "
              << (solver_ok ? "PASS" : "FAIL") << "\n";
    json << "    ]\n  },\n";

    // ------------------------------------------------------------------
    // Part 2: Table 4 — LC-OPG offline breakdown per model.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Table 4: LC-OPG solver runtime (150 s budget)");

    // Published columns (seconds / status), aligned with
    // table4ModelSet() order.
    struct Published
    {
        double p_process, p_build, p_solve;
        const char *p_status;
    };
    const Published published[] = {
        {0.010, 0.260, 45.00, "OPTIMAL"},    // GPTN-S
        {0.020, 1.170, 121.00, "FEASIBLE"},  // GPTN-1.3B
        {0.050, 1.980, 121.00, "FEASIBLE"},  // GPTN-2.7B
        {0.001, 4.110, 121.40, "FEASIBLE"},  // ViT-8B
        {0.007, 3.566, 124.80, "FEASIBLE"},  // Llama2-13B
        {0.023, 14.456, 136.38, "FEASIBLE"}, // Llama2-70B
    };
    const auto &t4models = table4ModelSet();
    FM_ASSERT(t4models.size() == std::size(published),
              "published[] out of sync with table4ModelSet()");

    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    Table t({"Model", "Process (s)", "(paper)", "Stage (s)", "Build (s)",
             "(paper)", "Solve (s)", "(paper)", "Solve CPU (s)",
             "Merge (s)", "Status", "(paper)"});
    std::uint64_t decisions_70b = 0, decisions_s = 0;
    json << "  \"table4\": [\n";
    for (std::size_t i = 0; i < t4models.size(); ++i) {
        const auto &e = t4models[i];
        const auto &pub = published[i];
        core::OpgParams params;
        // Scale per-window budget so the whole-model budget mirrors
        // the paper's 150 s limit across ~60 windows.
        params.solverDecisionsPerWindow = 20000;
        core::LcOpgPlanner planner(*e.graph, cap, km, params);
        core::PlanStats stats;
        auto plan = planner.plan(&stats);
        ok &= plan.validate(*e.graph, false);

        const char *status =
            solver::solveStatusName(stats.overallStatus);
        t.addRow({e.name, formatDouble(stats.processNodesSeconds, 3),
                  formatDouble(pub.p_process, 3),
                  formatDouble(stats.stageSeconds, 3),
                  formatDouble(stats.buildModelSeconds, 3),
                  formatDouble(pub.p_build, 3),
                  formatDouble(stats.solveSeconds, 2),
                  formatDouble(pub.p_solve, 2),
                  formatDouble(stats.solveCpuSeconds, 2),
                  formatDouble(stats.mergeSeconds, 3), status,
                  pub.p_status});
        json << "    {\"model\": \"" << e.name
             << "\", \"decisions\": " << stats.solverDecisions
             << ", \"rebalanced_chunks\": " << stats.rebalancedChunks
             << ", \"status\": \"" << status << "\"}"
             << (i + 1 < t4models.size() ? "," : "") << "\n";

        if (e.name == "GPTN-S")
            decisions_s = stats.solverDecisions;
        if (e.name == "Llama2-70B")
            decisions_70b = stats.solverDecisions;
        ok &= stats.overallStatus == solver::SolveStatus::Optimal ||
              stats.overallStatus == solver::SolveStatus::Feasible;
    }
    t.print(std::cout);
    json << "  ],\n";

    // Scale check: the 70B plan costs far more than the small model,
    // mirroring the paper's nonlinear growth. Solver decisions, not
    // host seconds, so the verdict does not depend on the host's load.
    ok &= decisions_70b > 2 * decisions_s;
    std::cout << "\nShape check (all plans feasible, cost grows with "
                 "scale): "
              << (ok ? "PASS" : "FAIL") << "\n";

    // Planner wall time by thread count (printed only: host time).
    // No memo, so every arm searches; the plan must not depend on the
    // count.
    {
        const auto &llama70b = t4models.back();
        FM_ASSERT(llama70b.name == "Llama2-70B",
                  "table4ModelSet() order changed");
        std::string first_plan;
        bool same = true;
        std::cout << "Llama2-70B plan wall time by planner threads ("
                  << std::thread::hardware_concurrency()
                  << " hardware threads):";
        for (int threads : {1, 2, 4}) {
            core::OpgParams params;
            params.solverDecisionsPerWindow = 20000;
            params.parallel.threads = threads;
            core::LcOpgPlanner planner(*llama70b.graph, cap, km, params);
            auto t0 = std::chrono::steady_clock::now();
            auto plan = planner.plan().serialize();
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            std::cout << " " << threads << " -> "
                      << formatDouble(wall, 2) << " s"
                      << (threads < 4 ? "," : "");
            if (first_plan.empty())
                first_plan = std::move(plan);
            else
                same &= plan == first_plan;
        }
        ok &= same;
        std::cout << "; plans identical: " << (same ? "PASS" : "FAIL")
                  << "\n";
    }

    // ------------------------------------------------------------------
    // Part 3: plan memo — planning GPTN-S a second time through one
    // caller-owned memo completes windows from the stored
    // finished solves instead of searching, and must ship the same
    // plan with the same decision count.
    // ------------------------------------------------------------------
    printHeading(std::cout, "Plan memo: repeated planning calls");
    const auto &gpts = *t4models.front().graph;
    core::PlanMemo memo;
    core::OpgParams memo_params;
    memo_params.memo = &memo;
    core::PlanStats cold_stats, repeat_stats;
    const auto cold_plan =
        core::LcOpgPlanner(gpts, cap, km, memo_params)
            .plan(&cold_stats)
            .serialize();
    const auto repeat_plan =
        core::LcOpgPlanner(gpts, cap, km, memo_params)
            .plan(&repeat_stats)
            .serialize();
    bool memo_ok = cold_plan == repeat_plan &&
                   cold_stats.solverDecisions ==
                       repeat_stats.solverDecisions &&
                   repeat_stats.memoHits > 0;
    ok &= memo_ok;
    std::cout << "GPTN-S cold: "
              << formatDouble(cold_stats.solveSeconds, 3) << " s, "
              << cold_stats.solverDecisions << " decisions; repeat: "
              << formatDouble(repeat_stats.solveSeconds, 3) << " s, "
              << repeat_stats.solverDecisions << " decisions ("
              << repeat_stats.memoHits << " of " << repeat_stats.windows
              << " windows reused)\n";
    std::cout << "Memo reuse (hits > 0, identical plan and decisions): "
              << (memo_ok ? "PASS" : "FAIL") << "\n";
    json << "  \"plan_memo\": {\"memo_hits\": " << repeat_stats.memoHits
         << ", \"windows\": " << repeat_stats.windows << "},\n";

    // ------------------------------------------------------------------
    // Part 4: merge-time re-balancing. Under the latency-priority
    // configuration (the Figure-6 study: 1 GiB in-flight budget,
    // lambda 0.5) some budget-truncated windows preload chunks even
    // though earlier windows reserved capacity greedily and did not
    // use it; the second merge pass moves those chunks back into the
    // stream. The check: at least one Table-4 model gets topped up,
    // and topping up never increases the preload set.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Merge-time re-balancing: truncated windows topped up");
    Table rt({"Model", "Rebalanced chunks", "Weights", "Preload (off)",
              "Preload (on)"});
    bool reb_any = false;
    json << "  \"rebalance\": [\n";
    for (std::size_t i = 0; i < 2; ++i) { // GPTN-S, GPTN-1.3B
        const auto &e = t4models[i];
        core::OpgParams params;
        params.solverDecisionsPerWindow = 20000;
        params.mPeak = mib(1024);
        params.lambda = 0.5;

        params.mergeRebalance = false;
        core::PlanStats stats_off;
        core::LcOpgPlanner off(*e.graph, cap, km, params);
        auto plan_off = off.plan(&stats_off);

        params.mergeRebalance = true;
        core::PlanStats stats_on;
        core::LcOpgPlanner on(*e.graph, cap, km, params);
        auto plan_on = on.plan(&stats_on);

        Bytes pre_off = plan_off.preloadBytes(*e.graph);
        Bytes pre_on = plan_on.preloadBytes(*e.graph);
        ok &= plan_on.validate(*e.graph, false);
        ok &= pre_on <= pre_off;
        reb_any |= stats_on.rebalancedChunks > 0;
        rt.addRow({e.name, std::to_string(stats_on.rebalancedChunks),
                   std::to_string(stats_on.rebalancedWeights),
                   formatBytes(pre_off), formatBytes(pre_on)});
        json << "    {\"model\": \"" << e.name
             << "\", \"rebalanced_chunks\": "
             << stats_on.rebalancedChunks
             << ", \"rebalanced_weights\": "
             << stats_on.rebalancedWeights
             << ", \"preload_mb_off\": " << toMiB(pre_off)
             << ", \"preload_mb_on\": " << toMiB(pre_on) << "}"
             << (i + 1 < 2 ? "," : "") << "\n";
    }
    rt.print(std::cout);
    ok &= reb_any;
    std::cout << "\nRe-balancing pass (>=1 model topped up, preload "
                 "never grows): "
              << (reb_any ? "PASS" : "FAIL") << "\n";
    json << "  ]\n}\n";
    if (argc > 1) {
        std::ofstream out(argv[1]);
        out << json.str();
        if (out.good()) {
            std::cout << "\nwrote " << argv[1] << "\n";
        } else {
            std::cerr << "failed to write " << argv[1] << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
