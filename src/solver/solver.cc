#include "solver/solver.hh"

#include <chrono>
#include <limits>

#include "common/logging.hh"
#include "solver/trail.hh"

namespace flashmem::solver {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

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
 * Trail-based DFS branch and bound. Per-node cost is proportional to
 * the number of bound changes, not to V or to the constraint count:
 * backtracking rewinds the trail, propagation drains a dirty queue fed
 * by per-variable watch lists, the objective lower bound and every
 * linear row's smin/smax move by delta on each tighten and back on
 * each undo, a row revision walks only the row's unfixed terms, and
 * variable selection reads the top of an indexed heap
 * (src/solver/README.md, "Per-node mechanics").
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

    /** A linear row's bounds and its range over current domains. */
    struct Row
    {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        std::int64_t smin = 0; ///< sum of the terms' minima
        std::int64_t smax = 0; ///< sum of the terms' maxima
    };
    std::vector<Row> rows;
    std::int32_t ncons = 0;

    /**
     * Term nodes. Node k is the k-th term over all rows in row order;
     * node termCount + ci is row ci's list head. Each row's unfixed
     * terms form a circular doubly linked list in term order (dancing
     * links): a variable's nodes are unlinked when a tighten fixes it
     * and relinked, in reverse, when the undo of that tighten un-fixes
     * it. An unlinked node keeps its links, so a walk that unlinks the
     * node it stands on still reaches the rest of the row.
     */
    std::vector<LinearTerm> nodeTerm;
    struct Link
    {
        std::int32_t prev = -1;
        std::int32_t next = -1;
    };
    std::vector<Link> links;
    std::int32_t termCount = 0;

    /** One term of a row that mentions a variable. */
    struct Occurrence
    {
        std::int32_t row = -1;
        std::int32_t node = -1;
        std::int64_t coef = 0;
    };
    /** Occurrences of v, in node order: occ[occStart[v], occStart[v+1]). */
    std::vector<std::int32_t> occStart;
    std::vector<Occurrence> occ;
    /**
     * Queue ids woken by a change of v, in
     * watch[watchStart[v], watchStart[v+1]): the rows that mention v
     * (ascending, once each), then ncons + each implication with v as
     * x or y (ascending).
     */
    std::vector<std::int32_t> watchStart;
    std::vector<std::int32_t> watch;

    // Incumbent.
    bool haveIncumbent = false;
    std::vector<std::int64_t> best;
    std::int64_t bestObjective = kInf;

    // Dirty propagation queue: ids [0, C) are linear constraints,
    // [C, C+I) are implications (offset by constraint count).
    std::vector<std::int32_t> queue;
    std::size_t queueHead = 0;
    std::vector<char> inQueue;

    /**
     * Indexed binary min-heap of the unfixed variables, each once,
     * keyed by (domain size, variable id); heapPos[v] is v's slot or
     * -1. A key is the size recorded at v's last refresh, so the heap
     * stays valid while domains move between two selections.
     */
    struct HeapItem
    {
        std::int64_t size = 0;
        VarId var = -1;
    };
    std::vector<HeapItem> heap;
    std::vector<std::int32_t> heapPos;
    // Deferred heap maintenance: changed variables are only marked
    // here; flushDirtyVars() re-keys each one once, right before
    // selection, however often it changed in between.
    std::vector<char> varDirty;
    std::vector<VarId> dirtyVars;

    // Stats / limits.
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t backtracks = 0;
    bool limitHit = false;

    /** The decision budget is the only limit (0 = none). */
    bool
    budgetSpent()
    {
        if (params.maxDecisions && decisions >= params.maxDecisions)
            limitHit = true;
        return limitHit;
    }

    void
    init(const CpModel &m)
    {
        model = &m;
        const auto n = static_cast<VarId>(m.varCount());
        std::vector<std::int64_t> lb(n), ub(n);
        for (VarId v = 0; v < n; ++v) {
            lb[v] = m.lowerBound(v);
            ub[v] = m.upperBound(v);
        }
        dom.init(std::move(lb), std::move(ub));

        objCoef.assign(n, 0);
        for (const auto &t : m.objective())
            objCoef[t.var] += t.coef;
        objMin = 0;
        for (VarId v = 0; v < n; ++v) {
            objMin += objCoef[v] *
                      (objCoef[v] >= 0 ? dom.lb(v) : dom.ub(v));
        }

        // Rows: root sums, term nodes, and lists of the unfixed terms.
        const auto &cons = m.constraints();
        ncons = static_cast<std::int32_t>(cons.size());
        termCount = 0;
        for (const auto &c : cons)
            termCount += static_cast<std::int32_t>(c.terms.size());
        rows.assign(cons.size(), {});
        nodeTerm.resize(termCount);
        links.assign(static_cast<std::size_t>(termCount) + cons.size(),
                     {});
        occStart.assign(n + 1, 0);
        std::int32_t node = 0;
        for (std::int32_t ci = 0; ci < ncons; ++ci) {
            const auto &c = cons[ci];
            Row &r = rows[ci];
            r.lo = c.lo;
            r.hi = c.hi;
            const std::int32_t head = termCount + ci;
            std::int32_t last = head;
            for (const auto &t : c.terms) {
                if (t.coef >= 0) {
                    r.smin += t.coef * dom.lb(t.var);
                    r.smax += t.coef * dom.ub(t.var);
                } else {
                    r.smin += t.coef * dom.ub(t.var);
                    r.smax += t.coef * dom.lb(t.var);
                }
                nodeTerm[node] = t;
                ++occStart[t.var + 1];
                // A variable fixed at the root never un-fixes, so its
                // nodes never join a list.
                if (!dom.fixed(t.var)) {
                    links[last].next = node;
                    links[node].prev = last;
                    last = node;
                }
                ++node;
            }
            links[last].next = head;
            links[head].prev = last;
        }

        // Variable -> occurrence adjacency, in node order.
        for (VarId v = 0; v < n; ++v)
            occStart[v + 1] += occStart[v];
        occ.resize(termCount);
        std::vector<std::int32_t> fill(occStart.begin(),
                                       occStart.end() - 1);
        node = 0;
        for (std::int32_t ci = 0; ci < ncons; ++ci) {
            for (const auto &t : cons[ci].terms)
                occ[fill[t.var]++] = {ci, node++, t.coef};
        }

        // Watch lists: a variable's rows, then its implications.
        const auto &imps = m.implications();
        std::vector<std::vector<std::int32_t>> impsOf(n);
        for (std::int32_t ii = 0;
             ii < static_cast<std::int32_t>(imps.size()); ++ii) {
            impsOf[imps[ii].x].push_back(ii);
            if (imps[ii].y != imps[ii].x)
                impsOf[imps[ii].y].push_back(ii);
        }
        watchStart.assign(n + 1, 0);
        watch.clear();
        for (VarId v = 0; v < n; ++v) {
            watchStart[v] = static_cast<std::int32_t>(watch.size());
            std::int32_t last_row = -1;
            for (auto k = occStart[v]; k < occStart[v + 1]; ++k) {
                if (occ[k].row != last_row) {
                    last_row = occ[k].row;
                    watch.push_back(last_row);
                }
            }
            for (auto ii : impsOf[v])
                watch.push_back(ncons + ii);
        }
        watchStart[n] = static_cast<std::int32_t>(watch.size());

        varDirty.assign(n, 0);
        dirtyVars.clear();
        heapPos.assign(n, -1);
        heap.clear();
        for (VarId v = 0; v < n; ++v) {
            if (dom.domainSize(v) > 0) {
                heapPos[v] = static_cast<std::int32_t>(heap.size());
                heap.push_back({dom.domainSize(v), v});
            }
        }
        for (std::size_t i = heap.size() / 2; i-- > 0;)
            siftDown(i);

        const auto total =
            m.constraints().size() + m.implications().size();
        inQueue.assign(total, 0);
        queue.clear();
        queueHead = 0;
        // Root propagation visits everything once.
        for (std::size_t id = 0; id < total; ++id)
            enqueue(static_cast<std::int32_t>(id));
    }

    static bool
    ranksBefore(const HeapItem &a, const HeapItem &b)
    {
        if (a.size != b.size)
            return a.size < b.size; // smallest domain first
        return a.var < b.var;       // then smallest id
    }

    void
    placeAt(std::size_t i, const HeapItem &e)
    {
        heap[i] = e;
        heapPos[e.var] = static_cast<std::int32_t>(i);
    }

    void
    siftUp(std::size_t i)
    {
        const HeapItem e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!ranksBefore(e, heap[parent]))
                break;
            placeAt(i, heap[parent]);
            i = parent;
        }
        placeAt(i, e);
    }

    void
    siftDown(std::size_t i)
    {
        const HeapItem e = heap[i];
        const std::size_t n = heap.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && ranksBefore(heap[child + 1], heap[child]))
                ++child;
            if (!ranksBefore(heap[child], e))
                break;
            placeAt(i, heap[child]);
            i = child;
        }
        placeAt(i, e);
    }

    /** Drop the variable in slot @p i from the heap. */
    void
    removeAt(std::size_t i)
    {
        heapPos[heap[i].var] = -1;
        const HeapItem last = heap.back();
        heap.pop_back();
        if (i == heap.size())
            return;
        placeAt(i, last);
        if (i > 0 && ranksBefore(last, heap[(i - 1) / 2]))
            siftUp(i);
        else
            siftDown(i);
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

    /**
     * Re-key every dirty variable to its live domain size: insert it
     * when it is unfixed and absent, drop it when fixed.
     */
    void
    flushDirtyVars()
    {
        for (auto v : dirtyVars) {
            varDirty[v] = 0;
            const std::int64_t size = dom.domainSize(v);
            const std::int32_t slot = heapPos[v];
            if (size > 0) {
                if (slot < 0) {
                    heap.push_back({size, v});
                    siftUp(heap.size() - 1);
                } else if (size != heap[slot].size) {
                    const bool shrank = size < heap[slot].size;
                    heap[slot].size = size;
                    if (shrank)
                        siftUp(static_cast<std::size_t>(slot));
                    else
                        siftDown(static_cast<std::size_t>(slot));
                }
            } else if (slot >= 0) {
                removeAt(static_cast<std::size_t>(slot));
            }
        }
        dirtyVars.clear();
    }

    /** The unfixed variable with the smallest (domain size, id). */
    VarId
    pickVariable()
    {
        flushDirtyVars();
        return heap.empty() ? -1 : heap.front().var;
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
        for (auto k = watchStart[v]; k < watchStart[v + 1]; ++k)
            enqueue(watch[k]);
        markDirty(v);
    }

    void
    unlinkNode(std::int32_t x)
    {
        links[links[x].prev].next = links[x].next;
        links[links[x].next].prev = links[x].prev;
    }

    void
    relinkNode(std::int32_t x)
    {
        links[links[x].prev].next = x;
        links[links[x].next].prev = x;
    }

    /**
     * Shared tail of a tighten by @p delta: move the sums of @p v's
     * rows (a lower bound feeds smin where coef >= 0 and smax where
     * coef < 0; an upper bound the reverse) and, if the tighten fixed
     * @p v, unlink its term nodes.
     * @return false when the domain wipes out (conflict).
     */
    bool
    afterTighten(VarId v, bool isUpper, std::int64_t delta)
    {
        const bool fixedNow = dom.fixed(v);
        for (auto k = occStart[v]; k < occStart[v + 1]; ++k) {
            const Occurrence &o = occ[k];
            Row &r = rows[o.row];
            ((o.coef >= 0) == isUpper ? r.smax : r.smin) += o.coef * delta;
            if (fixedNow)
                unlinkNode(o.node);
        }
        if (dom.empty(v))
            return false;
        onVarChanged(v);
        return true;
    }

    bool
    tightenLb(VarId v, std::int64_t x)
    {
        if (x <= dom.lb(v))
            return true;
        const std::int64_t delta = x - dom.lb(v);
        if (objCoef[v] > 0)
            objMin += objCoef[v] * delta;
        dom.tightenLb(v, x);
        return afterTighten(v, false, delta);
    }

    bool
    tightenUb(VarId v, std::int64_t x)
    {
        if (x >= dom.ub(v))
            return true;
        const std::int64_t delta = x - dom.ub(v);
        if (objCoef[v] < 0)
            objMin += objCoef[v] * delta;
        dom.tightenUb(v, x);
        return afterTighten(v, true, delta);
    }

    /**
     * Undo observer, called before the bound goes back from @p cur to
     * @p old: applies the inverse of the tighten's deltas to objMin and
     * the row sums, relinks the variable's term nodes (in reverse) when
     * the undo un-fixes it, and marks it for a heap refresh.
     */
    void
    onUndo(VarId v, bool isUpper, std::int64_t cur, std::int64_t old)
    {
        const std::int64_t delta = old - cur;
        if (isUpper ? objCoef[v] < 0 : objCoef[v] > 0)
            objMin += objCoef[v] * delta;
        const bool unfixes = dom.fixed(v);
        for (auto k = occStart[v + 1]; k-- > occStart[v];) {
            const Occurrence &o = occ[k];
            Row &r = rows[o.row];
            ((o.coef >= 0) == isUpper ? r.smax : r.smin) += o.coef * delta;
            if (unfixes)
                relinkNode(o.node);
        }
        markDirty(v);
    }

    void
    rewindTo(std::size_t mark)
    {
        dom.rewindTo(mark, [&](VarId v, bool isUpper, std::int64_t cur,
                               std::int64_t old) {
            onUndo(v, isUpper, cur, old);
        });
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
     * The row's smin/smax are kept current by every tighten and undo,
     * so the conflict and entailment checks are O(1); only a row that
     * can actually tighten something pays a per-term pass, and that
     * pass walks only the row's unfixed terms.
     */
    bool
    reviseLinear(std::int32_t ci)
    {
        Row &r = rows[ci];
        if (r.smin > r.hi || r.smax < r.lo)
            return false;
        // Entailed: no term can be tightened (coef*v <= hi - others_min
        // is implied by smax <= hi, and symmetrically for lo), so skip
        // the per-term division pass entirely.
        if (r.smin >= r.lo && r.smax <= r.hi)
            return true;

        const std::int32_t head = termCount + ci;
        for (std::int32_t node = links[head].next; node != head;
             node = links[node].next) {
            const VarId var = nodeTerm[node].var;
            const std::int64_t coef = nodeTerm[node].coef;
            const std::int64_t lb_v = dom.lb(var);
            const std::int64_t ub_v = dom.ub(var);
            // Fixed during this pass (the walk may step through nodes
            // it unlinked): nothing to tighten.
            if (lb_v == ub_v)
                continue;
            // Bounds of the sum excluding this term, against the live
            // sums (earlier iterations may have tightened them).
            std::int64_t tmin, tmax;
            if (coef >= 0) {
                tmin = coef * lb_v;
                tmax = coef * ub_v;
            } else {
                tmin = coef * ub_v;
                tmax = coef * lb_v;
            }
            // One-multiply tightenability filter: the term's value
            // coef*v spans [tmin, tmax]; the row only forces
            // coef*v - tmin <= hi - smin and tmax - coef*v <= smax -
            // lo, so unless the span exceeds one of those slacks the
            // division pass below cannot change anything.
            const std::int64_t width = tmax - tmin;
            if (width <= r.hi - r.smin && width <= r.smax - r.lo)
                continue;
            std::int64_t others_min = r.smin - tmin;
            std::int64_t others_max = r.smax - tmax;
            // lo - others_max <= coef*v <= hi - others_min.
            std::int64_t lo_num = r.lo == -kInf ? -kInf : r.lo - others_max;
            std::int64_t hi_num = r.hi == kInf ? kInf : r.hi - others_min;
            std::int64_t new_lb, new_ub;
            if (coef > 0) {
                new_lb = lo_num <= -kInf ? dom.lb(var)
                                         : divCeil(lo_num, coef);
                new_ub = hi_num >= kInf ? dom.ub(var)
                                        : divFloor(hi_num, coef);
            } else if (coef < 0) {
                new_lb = hi_num >= kInf ? dom.lb(var)
                                        : divCeil(hi_num, coef);
                new_ub = lo_num <= -kInf ? dom.ub(var)
                                         : divFloor(lo_num, coef);
            } else {
                continue;
            }
            if (!tightenLb(var, new_lb) || !tightenUb(var, new_ub))
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
            bool ok = id < ncons ? reviseLinear(id)
                                 : reviseImplication(id - ncons);
            if (!ok) {
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
        }
    }

    /** DFS with trail-rewind backtracking. @return true if exhausted. */
    bool
    search()
    {
        if (budgetSpent())
            return false;
        if (!propagate()) {
            ++backtracks;
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

        // Value ordering, objective-aware: positive-coefficient
        // objective variables prefer small values; negative prefer
        // large.
        const std::int64_t saved_lb = dom.lb(v);
        const std::int64_t saved_ub = dom.ub(v);
        const bool low_first = objCoef[v] >= 0;
        const std::size_t node_mark = dom.mark();

        for (int side = 0; side < 2; ++side) {
            ++decisions;
            if (budgetSpent())
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
            if (!ok)
                ++backtracks;
            rewindTo(node_mark);
            if (!exhausted)
                return false;
            if (!model->hasObjective() && haveIncumbent)
                return true;
        }
        return true;
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

    TrailSearch st;
    st.params = params_;
    st.init(model);
    if (hint && model.satisfiedBy(*hint)) {
        st.haveIncumbent = true;
        st.best = *hint;
        st.bestObjective = objectiveOf(model, *hint);
    }
    const bool exhausted = st.search();

    SolveResult result;
    result.decisions = st.decisions;
    result.propagations = st.propagations;
    result.backtracks = st.backtracks;
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
