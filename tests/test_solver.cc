/**
 * @file
 * Tests for the CP-SAT-style solver: propagation, implications,
 * optimality on knapsack-like problems, status reporting, limits, the
 * domain trail behind the search, randomized equivalence checks against
 * brute-force enumeration, and a reference DFS that pins the search
 * tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "solver/model.hh"
#include "solver/solver.hh"
#include "solver/trail.hh"

namespace flashmem::solver {
namespace {

/** Add expr >= lo. */
void
addGreaterOrEqual(CpModel &m, std::vector<LinearTerm> terms,
                  std::int64_t lo)
{
    m.addLinear(std::move(terms), lo,
                std::numeric_limits<std::int64_t>::max() / 4);
}

TEST(CpModel, VariableBookkeeping)
{
    CpModel m;
    auto x = m.newIntVar(0, 10, "x");
    auto y = m.newIntVar(-5, 5, "y");
    EXPECT_EQ(m.varCount(), 2u);
    EXPECT_EQ(m.lowerBound(x), 0);
    EXPECT_EQ(m.upperBound(y), 5);
    EXPECT_EQ(m.varName(x), "x");
}

TEST(CpModel, RejectsEmptyDomain)
{
    CpModel m;
    EXPECT_DEATH(m.newIntVar(3, 2, "bad"), "empty initial domain");
}

TEST(CpSolver, SatisfiesSimpleEquality)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    m.addEquality({{x, 1}, {y, 1}}, 7);
    m.addLessOrEqual({{x, 1}}, 3);

    auto r = CpSolver().solve(m);
    ASSERT_TRUE(r.feasible());
    EXPECT_EQ(r.value(x) + r.value(y), 7);
    EXPECT_LE(r.value(x), 3);
}

TEST(CpSolver, DetectsInfeasibility)
{
    CpModel m;
    auto x = m.newIntVar(0, 5);
    addGreaterOrEqual(m, {{x, 1}}, 3);
    m.addLessOrEqual({{x, 1}}, 2);
    auto r = CpSolver().solve(m);
    EXPECT_EQ(r.status, SolveStatus::Infeasible);
    EXPECT_FALSE(r.feasible());
}

TEST(CpSolver, MinimizesLinearObjective)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    addGreaterOrEqual(m, {{x, 1}, {y, 1}}, 6);
    m.minimize({{x, 3}, {y, 1}});

    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    // Cheapest way to reach sum >= 6 is all-y.
    EXPECT_EQ(r.value(x), 0);
    EXPECT_EQ(r.value(y), 6);
    EXPECT_EQ(r.objective, 6);
}

TEST(CpSolver, SolvesKnapsackOptimally)
{
    // Maximize 6a + 5b + 4c s.t. 3a + 2b + 2c <= 6, binary vars
    // (as minimization of the negated objective). Optimum: b=c=1,a=1?
    // 3+2+2=7 > 6, so best is a=1,b=1 (w=5,v=11) vs b=1,c=1 (w=4,v=9)
    // vs a=1,c=1 (w=5,v=10) -> 11.
    CpModel m;
    auto a = m.newIntVar(0, 1);
    auto b = m.newIntVar(0, 1);
    auto c = m.newIntVar(0, 1);
    m.addLessOrEqual({{a, 3}, {b, 2}, {c, 2}}, 6);
    m.minimize({{a, -6}, {b, -5}, {c, -4}});

    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.objective, -11);
    EXPECT_EQ(r.value(a), 1);
    EXPECT_EQ(r.value(b), 1);
    EXPECT_EQ(r.value(c), 0);
}

TEST(CpSolver, ImplicationForcesBound)
{
    // (x >= 1) => (z <= 3); force x = 2, minimize -z: z must stop at 3.
    CpModel m;
    auto x = m.newIntVar(2, 2);
    auto z = m.newIntVar(0, 10);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{z, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(z), 3);
}

TEST(CpSolver, ImplicationContrapositive)
{
    // (x >= 1) => (z <= 3); force z = 5, maximize x: x must stay 0.
    CpModel m;
    auto x = m.newIntVar(0, 4);
    auto z = m.newIntVar(5, 5);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{x, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 0);
}

TEST(CpSolver, ImplicationInactiveWhenBelowThreshold)
{
    CpModel m;
    auto x = m.newIntVar(0, 0);
    auto z = m.newIntVar(0, 10);
    m.addImplicationGeLe(x, 1, z, 3);
    m.minimize({{z, -1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(z), 10); // implication never fires
}

TEST(CpSolver, NegativeCoefficientsPropagate)
{
    // x - y == 2 with x in [0,10], y in [0,10]; minimize x.
    CpModel m;
    auto x = m.newIntVar(0, 10);
    auto y = m.newIntVar(0, 10);
    m.addEquality({{x, 1}, {y, -1}}, 2);
    m.minimize({{x, 1}});
    auto r = CpSolver().solve(m);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 2);
    EXPECT_EQ(r.value(y), 0);
}

TEST(CpSolver, WarmStartHintAccepted)
{
    CpModel m;
    auto x = m.newIntVar(0, 100);
    auto y = m.newIntVar(0, 100);
    addGreaterOrEqual(m, {{x, 1}, {y, 2}}, 50);
    m.minimize({{x, 1}, {y, 1}});

    std::vector<std::int64_t> hint = {50, 0};
    auto r = CpSolver().solve(m, &hint);
    ASSERT_TRUE(r.feasible());
    // Optimal is y=25, x=0 (objective 25); the hint (50) must not win.
    EXPECT_EQ(r.objective, 25);
}

TEST(CpSolver, InvalidHintIgnored)
{
    CpModel m;
    auto x = m.newIntVar(0, 10);
    m.addLessOrEqual({{x, 1}}, 5);
    m.minimize({{x, -1}});
    std::vector<std::int64_t> bad_hint = {9}; // violates x <= 5
    auto r = CpSolver().solve(m, &bad_hint);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value(x), 5);
}

TEST(CpSolver, DecisionLimitYieldsFeasibleOrUnknown)
{
    SolverParams params;
    params.maxDecisions = 3;
    CpModel m;
    std::vector<VarId> vars;
    for (int i = 0; i < 30; ++i)
        vars.push_back(m.newIntVar(0, 9));
    std::vector<LinearTerm> sum;
    for (auto v : vars)
        sum.push_back({v, 1});
    addGreaterOrEqual(m, sum, 100);
    m.minimize(sum);

    auto r = CpSolver(params).solve(m);
    EXPECT_TRUE(r.status == SolveStatus::Feasible ||
                r.status == SolveStatus::Unknown);
}

/** Small random model with a linear objective (see randomInstance). */
struct RandomInstance
{
    CpModel model;
    int nvars = 0;
    std::int64_t dom = 0; ///< seeds 0-59: every domain is [0, dom]
};

/**
 * Seeds 60-119: the edge cases no planner model hits. Root domains may
 * be negative or a single value (fixed before search), every row
 * repeats a variable, and a self-implication (x >= t) => (x <= b)
 * with b < t caps x below t. Row bounds sit around a planted
 * assignment that the self-implication allows, so every model is
 * feasible and the search goes deep enough to backtrack through it.
 */
RandomInstance
edgeInstance(int seed)
{
    Rng rng(7000 + seed);
    RandomInstance inst;
    inst.nvars = static_cast<int>(rng.uniformInt(3, 6));
    const int nvars = inst.nvars;
    CpModel &m = inst.model;
    std::vector<std::int64_t> planted;
    for (int i = 0; i < nvars; ++i) {
        const auto kind = rng.uniformInt(0, 2);
        std::int64_t lo = 0, hi = 0;
        if (kind == 0) {
            hi = rng.uniformInt(1, 5);
        } else if (kind == 1) {
            lo = rng.uniformInt(-4, -1);
            hi = lo + rng.uniformInt(1, 5);
        } else {
            lo = hi = rng.uniformInt(-3, 3);
        }
        m.newIntVar(lo, hi);
        planted.push_back(rng.uniformInt(lo, hi));
    }
    auto randomCoef = [&] {
        const auto magnitude = rng.uniformInt(1, 3);
        return rng.uniform() < 0.5 ? -magnitude : magnitude;
    };
    const int ncons = static_cast<int>(rng.uniformInt(1, 4));
    for (int c = 0; c < ncons; ++c) {
        std::vector<LinearTerm> terms;
        const auto nterms = rng.uniformInt(1, 2 * nvars);
        for (std::int64_t k = 0; k < nterms; ++k) {
            terms.push_back(
                {static_cast<VarId>(rng.uniformInt(0, nvars - 1)),
                 randomCoef()});
        }
        terms.push_back({terms.front().var, randomCoef()});
        std::int64_t at_planted = 0;
        for (const auto &t : terms)
            at_planted += t.coef * planted[t.var];
        const auto lo = at_planted - rng.uniformInt(0, 2);
        m.addLinear(std::move(terms), lo,
                    at_planted + rng.uniformInt(0, 2));
    }
    const auto x = static_cast<VarId>(rng.uniformInt(0, nvars - 1));
    const auto t = rng.uniformInt(planted[x] + 1, m.upperBound(x) + 1);
    m.addImplicationGeLe(x, t, x, t - rng.uniformInt(1, 2));
    std::vector<LinearTerm> obj;
    for (int i = 0; i < nvars; ++i)
        obj.push_back({i, rng.uniformInt(-4, 4)});
    m.minimize(obj);
    return inst;
}

/** Seeds 0-59: nvars variables over [0, dom], 1-4 rows over distinct
 * variables, maybe an implication. Seeds 60-119: edgeInstance(). */
RandomInstance
randomInstance(int seed)
{
    if (seed >= 60)
        return edgeInstance(seed);
    Rng rng(1000 + seed);
    RandomInstance inst;
    inst.nvars = static_cast<int>(rng.uniformInt(2, 5));
    inst.dom = rng.uniformInt(2, 4);
    const int nvars = inst.nvars;
    const std::int64_t dom = inst.dom;

    CpModel &m = inst.model;
    for (int i = 0; i < nvars; ++i)
        m.newIntVar(0, dom);

    const int ncons = static_cast<int>(rng.uniformInt(1, 4));
    for (int c = 0; c < ncons; ++c) {
        std::vector<LinearTerm> terms;
        for (int i = 0; i < nvars; ++i) {
            auto coef = rng.uniformInt(-3, 3);
            if (coef != 0)
                terms.push_back({i, coef});
        }
        if (terms.empty())
            terms.push_back({0, 1});
        auto lo = rng.uniformInt(-6, 2);
        auto hi = lo + rng.uniformInt(0, 8);
        m.addLinear(terms, lo, hi);
    }
    if (rng.uniform() < 0.5 && nvars >= 2) {
        // Bound before threshold: the order seeds 0-59's models were
        // built with.
        const auto bound = rng.uniformInt(0, dom - 1);
        const auto threshold = rng.uniformInt(1, dom);
        m.addImplicationGeLe(0, threshold, 1, bound);
    }
    std::vector<LinearTerm> obj;
    for (int i = 0; i < nvars; ++i)
        obj.push_back({i, rng.uniformInt(-4, 4)});
    m.minimize(obj);
    return inst;
}

// Randomized equivalence vs brute-force enumeration: statuses agree and
// objectives match on every seed.
class SolverVsBruteForce : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverVsBruteForce, AgreesOnRandomInstances)
{
    const auto inst = randomInstance(GetParam());
    const CpModel &m = inst.model;
    const auto nvars = static_cast<VarId>(m.varCount());
    const auto &obj = m.objective();

    // Brute force over every assignment within the root domains.
    std::vector<std::int64_t> assign(nvars);
    for (VarId v = 0; v < nvars; ++v)
        assign[v] = m.lowerBound(v);
    bool bf_feasible = false;
    std::int64_t bf_best = 0;
    auto feasible = [&](const std::vector<std::int64_t> &vals) {
        for (const auto &c : m.constraints()) {
            std::int64_t s = 0;
            for (const auto &t : c.terms)
                s += t.coef * vals[t.var];
            if (s < c.lo || s > c.hi)
                return false;
        }
        for (const auto &imp : m.implications()) {
            if (vals[imp.x] >= imp.xThreshold &&
                vals[imp.y] > imp.yBound)
                return false;
        }
        return true;
    };
    for (bool more = true; more;) {
        if (feasible(assign)) {
            std::int64_t o = 0;
            for (const auto &t : obj)
                o += t.coef * assign[t.var];
            if (!bf_feasible || o < bf_best) {
                bf_feasible = true;
                bf_best = o;
            }
        }
        // Next assignment, odometer style; stops after the last one.
        more = false;
        for (VarId v = 0; v < nvars && !more; ++v) {
            more = assign[v] < m.upperBound(v);
            assign[v] = more ? assign[v] + 1 : m.lowerBound(v);
        }
    }

    // The solver must agree with the enumerator.
    auto r = CpSolver().solve(m);
    if (bf_feasible) {
        ASSERT_EQ(r.status, SolveStatus::Optimal) << "seed " << GetParam();
        EXPECT_EQ(r.objective, bf_best) << "seed " << GetParam();
    } else {
        EXPECT_EQ(r.status, SolveStatus::Infeasible)
            << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverVsBruteForce,
                         ::testing::Range(0, 120));

// A row the declared domains entail stays entailed at every node, so
// it never prunes or conflicts: a solve cannot depend on its bounds,
// and the canonical fingerprint erases them.
TEST(CpModel, EntailedRowBoundsNeverChangeTheSearch)
{
    for (int seed = 0; seed < 60; ++seed) {
        SCOPED_TRACE(seed);
        const auto inst = randomInstance(seed);
        Rng rng(5000 + seed);
        std::vector<LinearTerm> terms;
        std::int64_t smin = 0, smax = 0; // range at the declared domains
        for (int i = 0; i < inst.nvars; ++i) {
            auto coef = rng.uniformInt(-3, 3);
            if (coef == 0)
                continue;
            terms.push_back({i, coef});
            smin += std::min<std::int64_t>(0, coef * inst.dom);
            smax += std::max<std::int64_t>(0, coef * inst.dom);
        }
        if (terms.empty()) {
            terms.push_back({0, 1});
            smax = inst.dom;
        }
        auto with_row = [&](std::int64_t lo, std::int64_t hi) {
            CpModel m = inst.model;
            m.addLinear(terms, lo, hi);
            return m;
        };
        const CpModel tight = with_row(smin, smax);
        // Upper slack before lower: the order every seed's loose row
        // was built with.
        const auto upper_slack = rng.uniformInt(1, 9);
        const auto lower_slack = rng.uniformInt(1, 9);
        const CpModel loose =
            with_row(smin - lower_slack, smax + upper_slack);
        EXPECT_EQ(tight.canonicalFingerprint(),
                  loose.canonicalFingerprint());
        // A row that can bind keeps its bounds in the canonical key.
        EXPECT_NE(with_row(smin + 1, smax).canonicalFingerprint(),
                  tight.canonicalFingerprint());
        EXPECT_NE(with_row(smin, smax - 1).canonicalFingerprint(),
                  tight.canonicalFingerprint());

        std::vector<std::int64_t> hint(inst.nvars);
        for (auto &v : hint)
            v = rng.uniformInt(0, inst.dom);
        SolverParams truncated;
        truncated.maxDecisions =
            static_cast<std::uint64_t>(rng.uniformInt(1, 12));
        for (const auto &params : {SolverParams{}, truncated}) {
            auto a = CpSolver(params).solve(tight, &hint);
            auto b = CpSolver(params).solve(loose, &hint);
            EXPECT_EQ(a.status, b.status);
            EXPECT_EQ(a.values, b.values);
            EXPECT_EQ(a.objective, b.objective);
            EXPECT_EQ(a.decisions, b.decisions);
            EXPECT_EQ(a.propagations, b.propagations);
            EXPECT_EQ(a.backtracks, b.backtracks);
        }
    }
}

TEST(CpSolver, StatusNames)
{
    EXPECT_STREQ(solveStatusName(SolveStatus::Optimal), "OPTIMAL");
    EXPECT_STREQ(solveStatusName(SolveStatus::Feasible), "FEASIBLE");
    EXPECT_STREQ(solveStatusName(SolveStatus::Infeasible), "INFEASIBLE");
    EXPECT_STREQ(solveStatusName(SolveStatus::Unknown), "UNKNOWN");
}

// ------------------------------------------------------------ DomainTrail

TEST(DomainTrail, TightenAndRewindRestoresExactly)
{
    DomainTrail dom;
    dom.init({0, -5, 10}, {9, 5, 20});

    auto root = dom.mark();
    dom.tightenLb(0, 3);
    dom.tightenUb(0, 7);
    dom.tightenUb(1, 0);
    EXPECT_EQ(dom.lb(0), 3);
    EXPECT_EQ(dom.ub(0), 7);
    EXPECT_EQ(dom.ub(1), 0);
    EXPECT_EQ(dom.depth(), 3u);

    auto inner = dom.mark();
    dom.tightenLb(2, 15);
    dom.tightenLb(0, 7); // fixes var 0
    EXPECT_TRUE(dom.fixed(0));

    dom.rewindTo(inner);
    EXPECT_EQ(dom.lb(0), 3);
    EXPECT_EQ(dom.lb(2), 10);
    EXPECT_EQ(dom.ub(1), 0); // outer changes survive inner rewind

    dom.rewindTo(root);
    EXPECT_EQ(dom.lb(0), 0);
    EXPECT_EQ(dom.ub(0), 9);
    EXPECT_EQ(dom.lb(1), -5);
    EXPECT_EQ(dom.ub(1), 5);
    EXPECT_EQ(dom.lb(2), 10);
    EXPECT_EQ(dom.ub(2), 20);
    EXPECT_EQ(dom.depth(), 0u);
}

TEST(DomainTrail, RewindObserverSeesEveryChange)
{
    DomainTrail dom;
    dom.init({0, 0}, {10, 10});
    auto mark = dom.mark();
    dom.tightenLb(0, 4);
    dom.tightenUb(1, 6);

    int undone = 0;
    dom.rewindTo(mark, [&](VarId v, bool isUpper, std::int64_t cur,
                           std::int64_t old) {
        ++undone;
        if (v == 0) {
            EXPECT_FALSE(isUpper);
            EXPECT_EQ(cur, 4);
            EXPECT_EQ(old, 0);
        } else {
            EXPECT_TRUE(isUpper);
            EXPECT_EQ(cur, 6);
            EXPECT_EQ(old, 10);
        }
    });
    EXPECT_EQ(undone, 2);
}

// Randomized regression: arbitrary interleavings of tightenings and
// nested rewinds always restore domains exactly (checked against shadow
// snapshot copies, the representation the seed solver used).
TEST(DomainTrail, RandomizedRewindMatchesSnapshots)
{
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        const int nvars = static_cast<int>(rng.uniformInt(1, 12));
        std::vector<std::int64_t> lb(nvars), ub(nvars);
        for (int v = 0; v < nvars; ++v) {
            lb[v] = rng.uniformInt(-20, 10);
            ub[v] = lb[v] + rng.uniformInt(0, 30);
        }
        DomainTrail dom;
        dom.init(lb, ub);

        // Stack of (mark, lb snapshot, ub snapshot).
        struct Snap
        {
            std::size_t mark;
            std::vector<std::int64_t> lb, ub;
        };
        std::vector<Snap> snaps{{dom.mark(), lb, ub}};

        for (int step = 0; step < 60; ++step) {
            double roll = rng.uniform();
            if (roll < 0.5) {
                // Tighten a random var if possible.
                VarId v = static_cast<VarId>(
                    rng.uniformInt(0, nvars - 1));
                if (dom.domainSize(v) <= 0)
                    continue;
                if (rng.uniform() < 0.5)
                    dom.tightenLb(
                        v, dom.lb(v) +
                               rng.uniformInt(1, dom.domainSize(v)));
                else
                    dom.tightenUb(
                        v, dom.ub(v) -
                               rng.uniformInt(1, dom.domainSize(v)));
            } else if (roll < 0.75) {
                snaps.push_back({dom.mark(), dom.lbs(), dom.ubs()});
            } else if (snaps.size() > 1) {
                dom.rewindTo(snaps.back().mark);
                EXPECT_EQ(dom.lbs(), snaps.back().lb);
                EXPECT_EQ(dom.ubs(), snaps.back().ub);
                snaps.pop_back();
            }
        }
        // Unwind everything: must land exactly on the root domains.
        dom.rewindTo(snaps.front().mark);
        EXPECT_EQ(dom.lbs(), lb);
        EXPECT_EQ(dom.ubs(), ub);
    }
}

// -------------------------------------------------------- Anytime bound

CpModel windowModel(int weights, int layers, int tw, int cap);

TEST(CpSolver, TruncatedSearchNeverScoresWorseThanItsHint)
{
    auto m = windowModel(18, 7, 4, 12);
    // A deliberately poor but feasible hint: each weight dumps all its
    // chunks on one early layer (3 weights per layer x 4 chunks fills
    // the capacity of layers 0..5 exactly).
    std::vector<std::int64_t> hint(m.varCount(), 0);
    for (int w = 0; w < 18; ++w)
        hint[static_cast<std::size_t>(w) * 7 + (w % 6)] = 4;
    ASSERT_TRUE(m.satisfiedBy(hint));
    std::int64_t hint_obj = 0;
    for (const auto &t : m.objective())
        hint_obj += t.coef * hint[t.var];

    SolverParams params;
    params.maxDecisions = 30000;
    auto r = CpSolver(params).solve(m, &hint);
    // The budget runs out before the proof, and the hint is the first
    // incumbent, so the search can only improve on it.
    ASSERT_EQ(r.status, SolveStatus::Feasible);
    EXPECT_LE(r.objective, hint_obj);
}

// ------------------------------------------------------------ Fingerprint

TEST(CpModel, FingerprintStableAndSensitive)
{
    auto build = [](std::int64_t ub, std::int64_t hi,
                    std::int64_t coef) {
        CpModel m;
        auto x = m.newIntVar(0, ub);
        auto y = m.newIntVar(0, 10);
        m.addLessOrEqual({{x, 1}, {y, coef}}, hi);
        m.addImplicationGeLe(x, 2, y, 5);
        m.minimize({{x, 1}, {y, 3}});
        return m;
    };
    auto key = [&](std::int64_t ub, std::int64_t hi, std::int64_t coef) {
        return build(ub, hi, coef).canonicalFingerprint();
    };
    // x + 2y <= 12 can bind (x = y = 10), so its bounds stay in the
    // canonical key.
    auto base = key(10, 12, 2);
    EXPECT_EQ(base, key(10, 12, 2)); // deterministic
    EXPECT_NE(base, key(11, 12, 2)); // domain change
    EXPECT_NE(base, key(10, 13, 2)); // rhs change
    EXPECT_NE(base, key(10, 12, 3)); // coef change

    CpModel no_obj;
    auto x = no_obj.newIntVar(0, 10);
    auto y = no_obj.newIntVar(0, 10);
    no_obj.addLessOrEqual({{x, 1}, {y, 2}}, 12);
    no_obj.addImplicationGeLe(x, 2, y, 5);
    // The objective participates.
    EXPECT_NE(base, no_obj.canonicalFingerprint());
}

// ------------------------------------------------- Window models

/** A mid-size OPG-ish model the solver proves optimal. */
CpModel
windowModel(int weights, int layers, int tw, int cap)
{
    CpModel m;
    std::vector<std::vector<VarId>> x(weights);
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        for (int l = 0; l < layers; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w][l], 1});
        }
        m.addEquality(row, tw);
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, cap);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l});
    }
    m.minimize(obj);
    return m;
}

TEST(CpSolver, SolvesWindowModelToKnownOptimum)
{
    // 6 weights x 2 chunks = 12 chunks; the cheapest layers cost 1, 2
    // and 3 per chunk and each holds 4, so the optimum fills them:
    // 4 * (1 + 2 + 3) = 24.
    auto r = CpSolver().solve(windowModel(6, 4, 2, 4));
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.objective, 24);
}

TEST(CpSolver, TrailEngineSolvesDeterministically)
{
    auto m = windowModel(8, 5, 3, 6);
    SolverParams params;
    params.maxDecisions = 50000;
    auto r1 = CpSolver(params).solve(m);
    auto r2 = CpSolver(params).solve(m);
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.objective, r2.objective);
    EXPECT_EQ(r1.decisions, r2.decisions);
    EXPECT_EQ(r1.values, r2.values);
}

TEST(CpSolver, ScalesToOpgWindowSizedProblems)
{
    // A problem shaped like one LC-OPG rolling window: ~30 weights x 8
    // candidate layers with completeness + capacity constraints.
    CpModel m;
    const int weights = 30, layers = 8;
    std::vector<std::vector<VarId>> x(weights);
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            x[w].push_back(m.newIntVar(0, 8));
        std::vector<LinearTerm> row;
        for (auto v : x[w])
            row.push_back({v, 1});
        m.addEquality(row, 8); // T(w) = 8 chunks
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, 40); // C_l
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l}); // prefer late loading
    }
    m.minimize(obj);

    SolverParams params;
    params.maxDecisions = 20000;
    auto r = CpSolver(params).solve(m);
    ASSERT_TRUE(r.feasible());
    // 240 chunks over layers of capacity 40: the optimal late packing
    // fills layers 7..2, costing 40 * (1+2+3+4+5+6) = 840.
    EXPECT_LE(r.objective, 840 + 120); // within 1 layer-shift of optimal
}

// ------------------------------------------------- Reference search tree

std::int64_t
floorDiv(std::int64_t a, std::int64_t b)
{
    const std::int64_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    const std::int64_t q = a / b;
    return (a % b != 0 && (a < 0) == (b < 0)) ? q + 1 : q;
}

/**
 * The solver's search restated as a plain recursive DFS. Each node
 * copies the domains and re-derives every row and implication to a
 * fixpoint from scratch with the same bounds rule, then branches on
 * the unfixed variable with the smallest (ub - lb), then the smallest
 * id, trying the objective-preferred side first. Value order, decision
 * counting, the budget check and `objMin >= best` pruning follow
 * CpSolver. Bounds propagation reaches one fixpoint whatever order it
 * revises in, so every node, decision, backtrack and incumbent must
 * match the solver's; only the propagation count depends on the order.
 */
class ReferenceDfs
{
  public:
    ReferenceDfs(const CpModel &m, std::uint64_t max_decisions)
        : m_(m), maxDecisions_(max_decisions), objCoef_(m.varCount(), 0)
    {
        for (const auto &t : m.objective())
            objCoef_[t.var] += t.coef;
    }

    SolveResult
    solve(const std::vector<std::int64_t> *hint)
    {
        if (hint && m_.satisfiedBy(*hint)) {
            haveIncumbent_ = true;
            best_ = *hint;
            bestObjective_ = 0;
            for (const auto &t : m_.objective())
                bestObjective_ += t.coef * (*hint)[t.var];
        }
        Box root{{}, {}};
        for (VarId v = 0; v < static_cast<VarId>(m_.varCount()); ++v) {
            root.lb.push_back(m_.lowerBound(v));
            root.ub.push_back(m_.upperBound(v));
        }
        const bool exhausted = search(root);
        SolveResult r;
        r.decisions = decisions_;
        r.backtracks = backtracks_;
        if (haveIncumbent_) {
            r.status = exhausted ? SolveStatus::Optimal
                                 : SolveStatus::Feasible;
            r.values = best_;
            r.objective = bestObjective_;
        } else {
            r.status = exhausted ? SolveStatus::Infeasible
                                 : SolveStatus::Unknown;
        }
        return r;
    }

  private:
    struct Box
    {
        std::vector<std::int64_t> lb, ub;
    };

    /** Tighten to the fixpoint; @return false when a domain empties or
     * a row cannot be met. */
    bool
    propagate(Box &d) const
    {
        for (bool changed = true; changed;) {
            changed = false;
            for (const auto &c : m_.constraints()) {
                std::int64_t smin = 0, smax = 0;
                auto range = [&] {
                    smin = smax = 0;
                    for (const auto &t : c.terms) {
                        const auto a = t.coef * d.lb[t.var];
                        const auto b = t.coef * d.ub[t.var];
                        smin += std::min(a, b);
                        smax += std::max(a, b);
                    }
                };
                range();
                if (smin > c.hi || smax < c.lo)
                    return false;
                for (const auto &t : c.terms) {
                    if (t.coef == 0 || d.lb[t.var] == d.ub[t.var])
                        continue;
                    const auto a = t.coef * d.lb[t.var];
                    const auto b = t.coef * d.ub[t.var];
                    // lo - others_max <= coef * v <= hi - others_min.
                    const auto low = c.lo - (smax - std::max(a, b));
                    const auto high = c.hi - (smin - std::min(a, b));
                    const auto new_lb = t.coef > 0 ? ceilDiv(low, t.coef)
                                                   : ceilDiv(high, t.coef);
                    const auto new_ub = t.coef > 0
                                            ? floorDiv(high, t.coef)
                                            : floorDiv(low, t.coef);
                    if (new_lb <= d.lb[t.var] && new_ub >= d.ub[t.var])
                        continue;
                    d.lb[t.var] = std::max(d.lb[t.var], new_lb);
                    d.ub[t.var] = std::min(d.ub[t.var], new_ub);
                    if (d.lb[t.var] > d.ub[t.var])
                        return false;
                    changed = true;
                    range();
                }
            }
            for (const auto &imp : m_.implications()) {
                VarId v = -1;
                std::int64_t cap = 0;
                if (d.lb[imp.x] >= imp.xThreshold) {
                    v = imp.y;
                    cap = imp.yBound;
                } else if (d.lb[imp.y] > imp.yBound) {
                    v = imp.x;
                    cap = imp.xThreshold - 1;
                }
                if (v < 0 || d.ub[v] <= cap)
                    continue;
                d.ub[v] = cap;
                if (d.lb[v] > d.ub[v])
                    return false;
                changed = true;
            }
        }
        return true;
    }

    std::int64_t
    objMin(const Box &d) const
    {
        std::int64_t s = 0;
        for (std::size_t v = 0; v < objCoef_.size(); ++v)
            s += objCoef_[v] * (objCoef_[v] >= 0 ? d.lb[v] : d.ub[v]);
        return s;
    }

    bool
    budgetSpent()
    {
        return maxDecisions_ != 0 && decisions_ >= maxDecisions_;
    }

    /** @return true when the subtree was exhausted. */
    bool
    search(Box d)
    {
        if (budgetSpent())
            return false;
        if (!propagate(d) || (haveIncumbent_ && m_.hasObjective() &&
                              objMin(d) >= bestObjective_)) {
            ++backtracks_;
            return true;
        }
        VarId v = -1;
        for (VarId u = 0; u < static_cast<VarId>(d.lb.size()); ++u) {
            const auto size = d.ub[u] - d.lb[u];
            if (size > 0 && (v < 0 || size < d.ub[v] - d.lb[v]))
                v = u;
        }
        if (v < 0) {
            const auto objective = objMin(d);
            if (!haveIncumbent_ || objective < bestObjective_) {
                haveIncumbent_ = true;
                bestObjective_ = objective;
                best_ = d.lb;
            }
            if (!m_.hasObjective())
                return true;
            ++backtracks_;
            return true;
        }
        const bool low_first = objCoef_[v] >= 0;
        for (int side = 0; side < 2; ++side) {
            ++decisions_;
            if (budgetSpent())
                return false;
            Box child = d;
            if ((side == 0) == low_first)
                child.ub[v] = d.lb[v];
            else
                child.lb[v] = d.lb[v] + 1;
            if (!search(std::move(child)))
                return false;
            if (!m_.hasObjective() && haveIncumbent_)
                return true;
        }
        return true;
    }

    const CpModel &m_;
    const std::uint64_t maxDecisions_;
    std::vector<std::int64_t> objCoef_;
    bool haveIncumbent_ = false;
    std::vector<std::int64_t> best_;
    std::int64_t bestObjective_ = 0;
    std::uint64_t decisions_ = 0;
    std::uint64_t backtracks_ = 0;
};

void
expectSameSearchTree(const CpModel &m,
                     const std::vector<std::int64_t> *hint,
                     std::uint64_t max_decisions)
{
    SCOPED_TRACE(::testing::Message() << "budget " << max_decisions);
    SolverParams params;
    params.maxDecisions = max_decisions;
    const auto got = CpSolver(params).solve(m, hint);
    const auto want = ReferenceDfs(m, max_decisions).solve(hint);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.objective, want.objective);
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.backtracks, want.backtracks);
}

/**
 * An LC-OPG window in miniature, shaped like the planner's: weight w's
 * tw chunks go to its preload variable y_w or to the layers before its
 * consumer (x_{w,l}), z_w is capped at the earliest layer that loads a
 * chunk (implications x_{w,l} >= 1 => z_w <= l), per-layer rows cap
 * the chunks loaded there, and the hint is the greedy latest-feasible
 * placement.
 */
std::pair<CpModel, std::vector<std::int64_t>>
opgWindowModel(int weights, int layers, std::int64_t tw, std::int64_t cap,
               std::uint64_t seed)
{
    Rng rng(seed);
    CpModel m;
    std::vector<int> consumer(weights);
    for (auto &c : consumer)
        c = 1 + static_cast<int>(rng.uniformInt(1, layers - 1));
    std::vector<VarId> y(weights), z(weights);
    std::vector<std::vector<VarId>> x(weights);
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        y[w] = m.newIntVar(0, tw);
        std::vector<LinearTerm> row{{y[w], 1}};
        for (int l = 0; l < consumer[w]; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w].back(), 1});
            obj.push_back({x[w].back(), consumer[w] - l - 1});
        }
        m.addEquality(row, tw);
        z[w] = m.newIntVar(0, consumer[w]);
        for (int l = 0; l < consumer[w]; ++l)
            m.addImplicationGeLe(x[w][l], 1, z[w], l);
        obj.push_back({y[w], 90});
        obj.push_back({z[w], -10});
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
    m.minimize(obj);

    std::vector<std::int64_t> hint(m.varCount(), 0);
    std::vector<std::int64_t> residual(layers, cap);
    for (int w = 0; w < weights; ++w) {
        std::int64_t rem = tw;
        hint[z[w]] = consumer[w];
        for (int l = consumer[w] - 1; l >= 0 && rem > 0; --l) {
            const auto take = std::min(rem, residual[l]);
            if (take <= 0)
                continue;
            residual[l] -= take;
            hint[x[w][l]] = take;
            rem -= take;
            hint[z[w]] = l;
        }
        hint[y[w]] = rem;
    }
    return {std::move(m), std::move(hint)};
}

// Pins the search tree: the solver's selection order, value order,
// propagation fixpoints and pruning, node by node. A heap that breaks
// size ties the other way, a row revision that skips an unfixed term or
// a row sum that drifts on undo changes some decision or backtrack
// count here.
TEST(CpSolver, SearchTreeMatchesReferenceDfs)
{
    for (int seed = 0; seed < 120; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const auto inst = randomInstance(seed);
        expectSameSearchTree(inst.model, nullptr, 0);
        expectSameSearchTree(inst.model, nullptr, 7);
    }
    expectSameSearchTree(windowModel(6, 4, 2, 4), nullptr, 0);
    expectSameSearchTree(windowModel(18, 7, 4, 12), nullptr, 30000);

    const auto [opg, hint] = opgWindowModel(7, 3, 2, 5, 3);
    ASSERT_TRUE(opg.satisfiedBy(hint));
    expectSameSearchTree(opg, &hint, 0);
}

} // namespace
} // namespace flashmem::solver
