/**
 * @file
 * Trail-based domain store for backtracking search.
 *
 * Instead of snapshotting full lb/ub vectors at every decision node (the
 * seed solver's O(V)-per-node approach), the trail records only the
 * bounds that actually change. Backtracking rewinds the tail of the
 * trail, restoring the previous state in time proportional to the number
 * of changes — typically a handful per node instead of thousands.
 *
 * The rewind observer lets the solver keep derived state consistent
 * without the trail knowing about it: the objective bound, each linear
 * row's smin/smax (the observer applies the inverse of the tighten's
 * delta), the rows' unfixed-term lists and the variable heap. Only
 * bounds are recorded, so a tighten that moves the sums of ten rows
 * still costs one trail entry.
 */

#ifndef FLASHMEM_SOLVER_TRAIL_HH
#define FLASHMEM_SOLVER_TRAIL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "solver/model.hh"

namespace flashmem::solver {

/** One recorded change: enough to undo it. */
struct TrailEntry
{
    enum class Kind : std::uint8_t { Lower, Upper };

    /** Variable id. */
    std::int32_t index = -1;
    Kind kind = Kind::Lower;
    std::int64_t old = 0;
};

/** Variable domains ([lb, ub] boxes) with an undo trail. */
class DomainTrail
{
  public:
    /** Reset to the given root domains; clears the trail. */
    void
    init(std::vector<std::int64_t> lb, std::vector<std::int64_t> ub)
    {
        FM_ASSERT(lb.size() == ub.size(), "lb/ub size mismatch");
        lb_ = std::move(lb);
        ub_ = std::move(ub);
        trail_.clear();
    }

    std::size_t varCount() const { return lb_.size(); }
    std::int64_t lb(VarId v) const { return lb_[v]; }
    std::int64_t ub(VarId v) const { return ub_[v]; }
    bool fixed(VarId v) const { return lb_[v] == ub_[v]; }
    /** ub - lb: 0 means fixed. */
    std::int64_t domainSize(VarId v) const { return ub_[v] - lb_[v]; }
    bool empty(VarId v) const { return lb_[v] > ub_[v]; }
    const std::vector<std::int64_t> &lbs() const { return lb_; }
    // FMLINT(allow:test-only-api) tests snapshot the domains' upper bounds
    const std::vector<std::int64_t> &ubs() const { return ub_; }

    /**
     * Raise the lower bound to @p x, recording the old bound. The caller
     * must ensure @p x > lb(v); the domain may become empty (conflict),
     * which the caller detects via empty().
     */
    void
    tightenLb(VarId v, std::int64_t x)
    {
        trail_.push_back({v, TrailEntry::Kind::Lower, lb_[v]});
        lb_[v] = x;
    }

    /** Lower the upper bound to @p x (x < ub(v)); see tightenLb(). */
    void
    tightenUb(VarId v, std::int64_t x)
    {
        trail_.push_back({v, TrailEntry::Kind::Upper, ub_[v]});
        ub_[v] = x;
    }

    /** Current trail position; pass to rewindTo() to undo past here. */
    std::size_t mark() const { return trail_.size(); }

    /** Number of bound changes recorded since init(). */
    std::size_t depth() const { return trail_.size(); }

    /**
     * Undo every change recorded after @p mark, newest first.
     * @p onUndo is called as onUndo(var, isUpper, currentValue,
     * restoredValue) *before* the bound is restored, so observers can
     * update derived state (objective bound and row-sum deltas, term
     * lists, heap keys).
     */
    template <typename F>
    void
    rewindTo(std::size_t mark, F &&onUndo)
    {
        while (trail_.size() > mark) {
            const TrailEntry e = trail_.back();
            trail_.pop_back();
            if (e.kind == TrailEntry::Kind::Upper) {
                onUndo(e.index, true, ub_[e.index], e.old);
                ub_[e.index] = e.old;
            } else {
                onUndo(e.index, false, lb_[e.index], e.old);
                lb_[e.index] = e.old;
            }
        }
    }

    /** rewindTo() without an observer. */
    void
    rewindTo(std::size_t mark)
    {
        rewindTo(mark,
                 [](VarId, bool, std::int64_t, std::int64_t) {});
    }

  private:
    std::vector<std::int64_t> lb_, ub_;
    std::vector<TrailEntry> trail_;
};

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_TRAIL_HH
