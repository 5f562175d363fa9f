#include "solver/solver.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "solver/portfolio.hh"
#include "solver/trail.hh"

namespace flashmem::solver {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/** Multiplicative activity bump applied per conflict (VSIDS-style). */
constexpr double kActivityDecay = 1.05;

/** Floor division robust to negative operands. */
std::int64_t
divFloor(std::int64_t a, std::int64_t b)
{
    std::int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Ceiling division robust to negative operands. */
std::int64_t
divCeil(std::int64_t a, std::int64_t b)
{
    std::int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) == (b < 0)))
        ++q;
    return q;
}

std::int64_t
objectiveOf(const CpModel &model, const std::vector<std::int64_t> &values)
{
    std::int64_t s = 0;
    for (const auto &t : model.objective())
        s += t.coef * values[t.var];
    return s;
}

/**
 * Luby restart sequence (Luby/Sinclair/Zuckerman 1993), 1-indexed:
 * 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
 */
std::uint64_t
luby(std::uint64_t i)
{
    for (;;) {
        std::uint64_t k = 1;
        while ((1ull << k) - 1 < i)
            ++k;
        if ((1ull << k) - 1 == i)
            return 1ull << (k - 1);
        i -= (1ull << (k - 1)) - 1;
    }
}

/**
 * Trail-based DFS branch and bound. Per-node cost is proportional to
 * the number of bound changes, not to V or to the constraint count:
 * backtracking rewinds the trail, propagation drains a dirty queue fed
 * by per-variable watch lists, the objective lower bound AND every
 * linear row's smin/smax are maintained incrementally (sum-restore
 * entries on the trail), and variable selection pops a lazy heap.
 * Optional Luby restarts with solution phase saving (see SolverParams).
 */
struct TrailSearch
{
    const CpModel *model = nullptr;
    SolverParams params;

    DomainTrail dom;

    // Dense objective coefficient per variable (0 when absent).
    std::vector<std::int64_t> objCoef;
    /** Incremental objective lower bound over current domains. */
    std::int64_t objMin = 0;

    /**
     * Trailed per-constraint partial sums: slot 2*ci holds smin (the
     * row's minimum over current domains), slot 2*ci+1 holds smax.
     * Updated by delta on every bound change via varCons and restored
     * exactly on rewind, so reviseLinear never re-sums a full row.
     */
    std::vector<std::int64_t> conSums;
    /** (constraint, coef) for every term mentioning a variable. */
    struct VarCon
    {
        std::int32_t con = -1;
        std::int64_t coef = 0;
    };
    std::vector<std::vector<VarCon>> varCons;

    // Incumbent.
    bool haveIncumbent = false;
    std::vector<std::int64_t> best;
    std::int64_t bestObjective = kInf;

    // Dirty propagation queue: ids [0, C) are linear constraints,
    // [C, C+I) are implications (offset by constraint count).
    std::vector<std::int32_t> queue;
    std::size_t queueHead = 0;
    std::vector<char> inQueue;

    // Lazy first-fail heap: entries go stale when a domain changes; a
    // fresh entry is pushed on every change, so the newest entry for a
    // variable always reflects its current size and stale ones are
    // discarded on pop (validated against the live domain).
    struct HeapEntry
    {
        std::int64_t size = 0;
        double activity = 0.0;
        VarId var = -1;
    };
    struct HeapWorse
    {
        /**
         * Final tie-break key per variable: the identity when
         * orderSeed == 0 (preserving the historical smallest-id-first
         * order byte for byte), a seeded permutation otherwise — the
         * portfolio's search-order diversity axis.
         */
        const std::int32_t *orderKey = nullptr;

        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.size != b.size)
                return a.size > b.size; // smallest domain first
            if (a.activity != b.activity)
                return a.activity < b.activity; // then most active
            return orderKey[a.var] > orderKey[b.var];
        }
    };
    std::vector<HeapEntry> heap;
    std::vector<std::int32_t> orderKey;
    std::vector<double> activity;
    double activityInc = 1.0;
    // Deferred heap maintenance: changed variables are only marked
    // here; flushDirtyVars() pushes one fresh entry per variable right
    // before selection. A variable tightened several times between two
    // decisions costs one push instead of one per change, and the lazy
    // validity check on pop keeps selection order identical.
    std::vector<char> varDirty;
    std::vector<VarId> dirtyVars;

    // Stats / limits / restarts.
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t backtracks = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t conflictLimit = 0; ///< next restart point (conflicts)
    std::uint64_t restarts = 0;
    bool restartPending = false;
    bool limitHit = false;
    bool cancelled = false;
    bool timeLimited = false;
    // Snapshots at the last incumbent improvement (see SolveResult).
    std::uint64_t improveDecisions = 0;
    std::uint64_t improvePropagations = 0;
    std::uint64_t improveBacktracks = 0;
    std::uint64_t improveRestarts = 0;
    // FMLINT(allow:no-wall-clock) wall-clock time budget; Table-4 determinism runs bound by conflicts/decisions, not time
    std::chrono::steady_clock::time_point deadline;

    bool
    timeUp()
    {
        // Check the clock (and the portfolio board) sparingly;
        // decisions dominate runtime.
        if ((decisions & 0x3F) == 0) {
            // FMLINT(allow:no-wall-clock) wall-clock time budget; Table-4 determinism runs bound by conflicts/decisions, not time
            if (std::chrono::steady_clock::now() >= deadline) {
                limitHit = true;
                timeLimited = true;
            }
            if (params.board && !cancelled) {
                // Cancellation-only bound sharing: stop when a
                // lower-indexed configuration achieved the proven
                // optimum, or self-stop once our own incumbent
                // matches it (further search cannot improve it).
                std::int64_t proven = 0;
                if (params.board->cancelled(params.portfolioIndex)) {
                    cancelled = true;
                    limitHit = true;
                } else if (params.board->provenObjective(&proven) &&
                           haveIncumbent && bestObjective <= proven) {
                    params.board->noteAchieved(params.portfolioIndex);
                    cancelled = true;
                    limitHit = true;
                }
            }
        }
        if (params.maxDecisions && decisions >= params.maxDecisions)
            limitHit = true;
        return limitHit;
    }

    /** Conflict bookkeeping shared by propagation and branching. */
    void
    noteConflict()
    {
        ++conflicts;
        if (params.restartConflictBase && conflicts >= conflictLimit)
            restartPending = true;
    }

    void
    init(const CpModel &m)
    {
        model = &m;
        const auto n = m.varCount();
        std::vector<std::int64_t> lb(n), ub(n);
        for (VarId v = 0; v < static_cast<VarId>(n); ++v) {
            lb[v] = m.lowerBound(v);
            ub[v] = m.upperBound(v);
        }
        dom.init(std::move(lb), std::move(ub));

        objCoef.assign(n, 0);
        for (const auto &t : m.objective())
            objCoef[t.var] += t.coef;
        objMin = 0;
        for (VarId v = 0; v < static_cast<VarId>(n); ++v) {
            objMin += objCoef[v] *
                      (objCoef[v] >= 0 ? dom.lb(v) : dom.ub(v));
        }

        // Root partial sums per constraint + the var -> (row, coef)
        // adjacency that keeps them incremental from here on.
        const auto ncons = m.constraints().size();
        conSums.assign(2 * ncons, 0);
        varCons.assign(n, {});
        for (std::size_t ci = 0; ci < ncons; ++ci) {
            const auto &c = m.constraints()[ci];
            for (const auto &t : c.terms) {
                if (t.coef >= 0) {
                    conSums[2 * ci] += t.coef * dom.lb(t.var);
                    conSums[2 * ci + 1] += t.coef * dom.ub(t.var);
                } else {
                    conSums[2 * ci] += t.coef * dom.ub(t.var);
                    conSums[2 * ci + 1] += t.coef * dom.lb(t.var);
                }
                varCons[t.var].push_back(
                    {static_cast<std::int32_t>(ci), t.coef});
            }
        }
        dom.trackSums(&conSums);

        orderKey.resize(n);
        for (VarId v = 0; v < static_cast<VarId>(n); ++v)
            orderKey[v] = v;
        if (params.orderSeed) {
            // Seeded Fisher-Yates over the tie-break ranks; the
            // permutation is a pure function of the seed, so every
            // configuration's search order is reproducible.
            Rng rng(params.orderSeed);
            for (std::size_t i = n; i > 1; --i) {
                const auto j = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(i) - 1));
                std::swap(orderKey[i - 1], orderKey[j]);
            }
        }

        activity.assign(n, 0.0);
        varDirty.assign(n, 0);
        dirtyVars.clear();
        heap.clear();
        heap.reserve(n);
        for (VarId v = 0; v < static_cast<VarId>(n); ++v) {
            if (dom.domainSize(v) > 0)
                pushHeap(v);
        }

        const auto total =
            m.constraints().size() + m.implications().size();
        inQueue.assign(total, 0);
        queue.clear();
        queueHead = 0;
        // Root propagation visits everything once.
        for (std::size_t id = 0; id < total; ++id)
            enqueue(static_cast<std::int32_t>(id));
    }

    void
    pushHeap(VarId v)
    {
        heap.push_back({dom.domainSize(v), activity[v], v});
        std::push_heap(heap.begin(), heap.end(),
                       HeapWorse{orderKey.data()});
    }

    /** Mark @p v for a heap refresh at the next selection point. */
    void
    markDirty(VarId v)
    {
        if (!varDirty[v]) {
            varDirty[v] = 1;
            dirtyVars.push_back(v);
        }
    }

    /** Push one fresh entry per dirty, still-unfixed variable. */
    void
    flushDirtyVars()
    {
        for (auto v : dirtyVars) {
            varDirty[v] = 0;
            if (dom.domainSize(v) > 0)
                pushHeap(v);
        }
        dirtyVars.clear();
    }

    /** Pop the unfixed variable with the smallest current domain. */
    VarId
    pickVariable()
    {
        flushDirtyVars();
        while (!heap.empty()) {
            HeapEntry e = heap.front();
            std::pop_heap(heap.begin(), heap.end(),
                          HeapWorse{orderKey.data()});
            heap.pop_back();
            // Valid only if it still describes the live domain.
            if (e.size > 0 && dom.domainSize(e.var) == e.size)
                return e.var;
        }
        return -1;
    }

    /** Rebuild the heap from live domains when stale entries pile up. */
    void
    compactHeapIfNeeded()
    {
        if (heap.size() <=
            std::max<std::size_t>(64, 8 * dom.varCount()))
            return;
        heap.clear();
        for (VarId v = 0; v < static_cast<VarId>(dom.varCount()); ++v) {
            if (dom.domainSize(v) > 0)
                heap.push_back({dom.domainSize(v), activity[v], v});
        }
        std::make_heap(heap.begin(), heap.end(),
                       HeapWorse{orderKey.data()});
    }

    void
    enqueue(std::int32_t id)
    {
        if (!inQueue[id]) {
            inQueue[id] = 1;
            queue.push_back(id);
        }
    }

    /** Wake every constraint/implication watching @p v. */
    void
    onVarChanged(VarId v)
    {
        const auto ncons =
            static_cast<std::int32_t>(model->constraints().size());
        for (auto c : model->constraintsWatching(v))
            enqueue(c);
        for (auto i : model->implicationsWatching(v))
            enqueue(ncons + i);
        markDirty(v);
    }

    /** @return false when the domain wipes out (conflict). */
    bool
    tightenLb(VarId v, std::int64_t x)
    {
        if (x <= dom.lb(v))
            return true;
        const std::int64_t delta = x - dom.lb(v);
        if (objCoef[v] > 0)
            objMin += objCoef[v] * delta;
        // A raised lb moves smin for coef >= 0 rows (smin tracks lb
        // there) and smax for coef < 0 rows (smax tracks lb there).
        for (const auto &vc : varCons[v]) {
            dom.addToSum(vc.coef >= 0 ? 2 * vc.con : 2 * vc.con + 1,
                         vc.coef * delta);
        }
        dom.tightenLb(v, x);
        if (dom.empty(v))
            return false;
        onVarChanged(v);
        return true;
    }

    bool
    tightenUb(VarId v, std::int64_t x)
    {
        if (x >= dom.ub(v))
            return true;
        const std::int64_t delta = x - dom.ub(v);
        if (objCoef[v] < 0)
            objMin += objCoef[v] * delta;
        for (const auto &vc : varCons[v]) {
            dom.addToSum(vc.coef >= 0 ? 2 * vc.con + 1 : 2 * vc.con,
                         vc.coef * delta);
        }
        dom.tightenUb(v, x);
        if (dom.empty(v))
            return false;
        onVarChanged(v);
        return true;
    }

    /** Undo observer: keeps objMin and the heap in sync with rewinds. */
    void
    onUndo(VarId v, bool isUpper, std::int64_t cur, std::int64_t old)
    {
        if (isUpper) {
            if (objCoef[v] < 0)
                objMin += objCoef[v] * (old - cur);
        } else {
            if (objCoef[v] > 0)
                objMin += objCoef[v] * (old - cur);
        }
    }

    void
    rewindTo(std::size_t mark)
    {
        // Restored vars are marked dirty so each gets one fresh heap
        // entry (reflecting its re-grown domain) at the next pick.
        dom.rewindTo(mark, [&](VarId v, bool isUpper, std::int64_t cur,
                               std::int64_t old) {
            onUndo(v, isUpper, cur, old);
            markDirty(v);
        });
        compactHeapIfNeeded();
    }

    /** Bump activity of the variables in the conflicting row. */
    void
    bumpConflict(std::int32_t id)
    {
        const auto ncons =
            static_cast<std::int32_t>(model->constraints().size());
        auto bump = [&](VarId v) {
            activity[v] += activityInc;
            if (activity[v] > 1e100) {
                for (auto &a : activity)
                    a *= 1e-100;
                activityInc *= 1e-100;
            }
        };
        if (id < ncons) {
            for (const auto &t : model->constraints()[id].terms)
                bump(t.var);
        } else {
            const auto &imp = model->implications()[id - ncons];
            bump(imp.x);
            bump(imp.y);
        }
        activityInc *= kActivityDecay;
    }

    void
    clearQueue()
    {
        for (std::size_t i = queueHead; i < queue.size(); ++i)
            inQueue[queue[i]] = 0;
        queue.clear();
        queueHead = 0;
    }

    /**
     * One bounds-consistency revision of linear constraint @p ci.
     * The row's smin/smax come from the trailed partial sums, so the
     * conflict and entailment checks are O(1); only a row that can
     * actually tighten something pays a per-term pass, and the sums
     * stay consistent automatically because tightenLb/Ub route every
     * delta through dom.addToSum().
     */
    bool
    reviseLinear(std::int32_t ci)
    {
        const auto &c = model->constraints()[ci];
        {
            const std::int64_t smin = conSums[2 * ci];
            const std::int64_t smax = conSums[2 * ci + 1];
            if (smin > c.hi || smax < c.lo)
                return false;
            // Entailed: no term can be tightened (coef*v <= c.hi -
            // others_min is implied by smax <= c.hi, and symmetrically
            // for lo), so skip the per-term division pass entirely.
            if (smin >= c.lo && smax <= c.hi)
                return true;
        }

        for (const auto &t : c.terms) {
            const std::int64_t lb_v = dom.lb(t.var);
            const std::int64_t ub_v = dom.ub(t.var);
            if (lb_v == ub_v)
                continue; // fixed: nothing to tighten
            // Bounds of the sum excluding this term, against the live
            // sums (earlier iterations may have tightened them).
            std::int64_t tmin, tmax;
            if (t.coef >= 0) {
                tmin = t.coef * lb_v;
                tmax = t.coef * ub_v;
            } else {
                tmin = t.coef * ub_v;
                tmax = t.coef * lb_v;
            }
            // One-multiply tightenability filter: the term's value
            // coef*v spans [tmin, tmax]; the row only forces
            // coef*v - tmin <= c.hi - smin and tmax - coef*v <= smax -
            // c.lo, so unless the span exceeds one of those slacks the
            // division pass below cannot change anything.
            const std::int64_t width = tmax - tmin;
            if (width <= c.hi - conSums[2 * ci] &&
                width <= conSums[2 * ci + 1] - c.lo)
                continue;
            std::int64_t others_min = conSums[2 * ci] - tmin;
            std::int64_t others_max = conSums[2 * ci + 1] - tmax;
            // c.lo - others_max <= coef*v <= c.hi - others_min.
            std::int64_t lo_num = c.lo == -kInf ? -kInf : c.lo - others_max;
            std::int64_t hi_num = c.hi == kInf ? kInf : c.hi - others_min;
            std::int64_t new_lb, new_ub;
            if (t.coef > 0) {
                new_lb = lo_num <= -kInf ? dom.lb(t.var)
                                         : divCeil(lo_num, t.coef);
                new_ub = hi_num >= kInf ? dom.ub(t.var)
                                        : divFloor(hi_num, t.coef);
            } else if (t.coef < 0) {
                new_lb = hi_num >= kInf ? dom.lb(t.var)
                                        : divCeil(hi_num, t.coef);
                new_ub = lo_num <= -kInf ? dom.ub(t.var)
                                         : divFloor(lo_num, t.coef);
            } else {
                continue;
            }
            if (!tightenLb(t.var, new_lb) || !tightenUb(t.var, new_ub))
                return false;
        }
        return true;
    }

    /** One revision of implication @p ii. */
    bool
    reviseImplication(std::int32_t ii)
    {
        const auto &imp = model->implications()[ii];
        // (x >= thr) => (y <= bound)
        if (dom.lb(imp.x) >= imp.xThreshold) {
            if (!tightenUb(imp.y, imp.yBound))
                return false;
        } else if (dom.lb(imp.y) > imp.yBound) {
            // Contrapositive: y already exceeds the bound, so x must
            // stay below its threshold.
            if (!tightenUb(imp.x, imp.xThreshold - 1))
                return false;
        }
        return true;
    }

    /**
     * Drain the dirty queue to fixpoint. @return false on conflict
     * (domain wipe-out or objective bound exceeded).
     */
    bool
    propagate()
    {
        if (haveIncumbent && model->hasObjective() &&
            objMin >= bestObjective) {
            clearQueue();
            return false;
        }
        while (queueHead < queue.size()) {
            auto id = queue[queueHead++];
            inQueue[id] = 0;
            ++propagations;
            const auto ncons =
                static_cast<std::int32_t>(model->constraints().size());
            bool ok = id < ncons ? reviseLinear(id)
                                 : reviseImplication(id - ncons);
            if (!ok) {
                bumpConflict(id);
                clearQueue();
                return false;
            }
            // Objective bounding against the incumbent, incrementally.
            if (haveIncumbent && model->hasObjective() &&
                objMin >= bestObjective) {
                clearQueue();
                return false;
            }
        }
        queue.clear();
        queueHead = 0;
        return true;
    }

    void
    recordIncumbent()
    {
        // All variables fixed: objMin is the exact objective value.
        if (!haveIncumbent || objMin < bestObjective) {
            haveIncumbent = true;
            bestObjective = objMin;
            best = dom.lbs();
            improveDecisions = decisions;
            improvePropagations = propagations;
            improveBacktracks = backtracks;
            improveRestarts = restarts;
        }
    }

    /**
     * DFS with trail-rewind backtracking. @return true if exhausted.
     * A pending restart unwinds like a limit hit (every level returns
     * false and rewinds its mark), landing back at the root state; the
     * driver in solve() then re-enters search().
     */
    bool
    search()
    {
        if (timeUp() || restartPending)
            return false;
        if (!propagate()) {
            ++backtracks;
            noteConflict();
            return true;
        }
        VarId v = pickVariable();
        if (v < 0) {
            recordIncumbent();
            if (!model->hasObjective()) {
                // Satisfaction problem: first solution suffices.
                return true;
            }
            ++backtracks;
            return true;
        }

        // Value ordering: under restarts with an incumbent, follow the
        // saved solution phase (branch toward the incumbent's value)
        // so re-descents revisit the good region first. Otherwise,
        // objective-aware: positive-coefficient objective variables
        // prefer small values; negative prefer large.
        const std::int64_t saved_lb = dom.lb(v);
        const std::int64_t saved_ub = dom.ub(v);
        const bool low_first =
            ((params.restartConflictBase && haveIncumbent)
                 ? best[v] <= saved_lb
                 : objCoef[v] >= 0) != params.invertValueOrder;
        const std::size_t node_mark = dom.mark();

        for (int side = 0; side < 2; ++side) {
            ++decisions;
            if (timeUp() || restartPending)
                return false;
            bool try_low = (side == 0) == low_first;
            bool ok;
            if (try_low) {
                // v = lb
                ok = tightenUb(v, saved_lb);
            } else {
                // v in [lb+1, ub]
                if (saved_lb + 1 > saved_ub)
                    continue;
                ok = tightenLb(v, saved_lb + 1);
            }
            bool exhausted = !ok || search();
            if (!ok) {
                ++backtracks;
                noteConflict();
            }
            rewindTo(node_mark);
            if (!exhausted)
                return false;
            if (!model->hasObjective() && haveIncumbent)
                return true;
        }
        return true;
    }

    /**
     * Search to exhaustion or a limit, restarting on the Luby schedule
     * when enabled. @return true if the search space was exhausted.
     */
    bool
    run()
    {
        if (!params.restartConflictBase)
            return search();
        for (std::uint64_t i = 1;; ++i) {
            conflictLimit =
                conflicts + luby(i) * params.restartConflictBase;
            restartPending = false;
            if (search())
                return true; // exhausted (or satisfied)
            if (limitHit)
                return false;
            // Restart: the unwind already rewound to the root state;
            // re-descend with the saved solution phase.
            ++restarts;
        }
    }
};

} // namespace

const char *
solveStatusName(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Optimal:
        return "OPTIMAL";
      case SolveStatus::Feasible:
        return "FEASIBLE";
      case SolveStatus::Infeasible:
        return "INFEASIBLE";
      case SolveStatus::Unknown:
        return "UNKNOWN";
    }
    return "?";
}

SolveResult
CpSolver::solve(const CpModel &model,
                const std::vector<std::int64_t> *hint)
{
    // FMLINT(allow:no-wall-clock) reported wall time only; solve results never depend on it
    auto t0 = std::chrono::steady_clock::now();
    auto deadline =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(
                 params_.timeLimitSeconds * 1e6));

    TrailSearch st;
    st.params = params_;
    st.deadline = deadline;
    st.init(model);
    if (hint && model.satisfiedBy(*hint)) {
        st.haveIncumbent = true;
        st.best = *hint;
        st.bestObjective = objectiveOf(model, *hint);
    }
    const bool exhausted = st.run();

    SolveResult result;
    result.decisions = st.decisions;
    result.propagations = st.propagations;
    result.backtracks = st.backtracks;
    result.restarts = st.restarts;
    result.cancelled = st.cancelled;
    result.timeLimited = st.timeLimited;
    result.improveDecisions = st.improveDecisions;
    result.improvePropagations = st.improvePropagations;
    result.improveBacktracks = st.improveBacktracks;
    result.improveRestarts = st.improveRestarts;
    result.wallSeconds =
        // FMLINT(allow:no-wall-clock) reported wall time only; solve results never depend on it
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    if (st.haveIncumbent) {
        result.status =
            exhausted ? SolveStatus::Optimal : SolveStatus::Feasible;
        result.values = std::move(st.best);
        result.objective = st.bestObjective;
    } else {
        result.status =
            exhausted ? SolveStatus::Infeasible : SolveStatus::Unknown;
    }
    return result;
}

} // namespace flashmem::solver
