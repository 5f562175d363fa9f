/**
 * @file
 * The overlap plan: the artifact LC-OPG produces offline and the runtime
 * consumes (paper Section 3). For every weight it records how many
 * chunks are preloaded at initialization, which layers transform the
 * remaining chunks inline (the x_{w,l} assignments), and the earliest
 * disk-load layer z_w.
 */

#ifndef FLASHMEM_CORE_OVERLAP_PLAN_HH
#define FLASHMEM_CORE_OVERLAP_PLAN_HH

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/weight_slicer.hh"
#include "graph/graph.hh"
#include "solver/solver.hh"

namespace flashmem::core {

/** x_{w,l}: chunks of one weight transformed inline by one layer. */
struct ChunkAssignment
{
    graph::WeightId weight = -1;
    graph::NodeId layer = graph::kInvalidNode;
    std::int64_t chunks = 0;
};

/** Per-weight schedule extracted from the solver. */
struct WeightSchedule
{
    graph::WeightId weight = -1;
    /** Chunks loaded + transformed during initialization (subset of W;
     * equal to T(w) means the weight is fully in the preload set). */
    std::int64_t preloadChunks = 0;
    /** z_w: layer whose start triggers the disk read for the streamed
     * chunks; kInvalidNode when everything is preloaded. */
    graph::NodeId earliestLoadLayer = graph::kInvalidNode;
};

/** Complete overlap plan for one (possibly fused) graph. */
class OverlapPlan
{
  public:
    OverlapPlan() = default;
    OverlapPlan(const graph::Graph &g, Bytes chunk_bytes);

    Bytes chunkBytes() const { return chunk_bytes_; }

    /** @name Construction (planner-side). @{ */
    void setPreloadChunks(graph::WeightId w, std::int64_t chunks);
    void setEarliestLoad(graph::WeightId w, graph::NodeId layer);
    void addAssignment(graph::WeightId w, graph::NodeId layer,
                       std::int64_t chunks);
    /** @} */

    /** @name Queries (runtime-side). @{ */
    const WeightSchedule &schedule(graph::WeightId w) const;
    /** Assignments executed by layer @p l, in weight order. */
    const std::vector<ChunkAssignment> &assignmentsAt(
        graph::NodeId l) const;
    /** Total bytes the init phase preloads (the |W| memory term). */
    Bytes preloadBytes(const graph::Graph &g) const;
    /** Bytes streamed inline (not preloaded). */
    Bytes streamedBytes(const graph::Graph &g) const;
    /** Fraction of weight bytes streamed via overlap (Figure 8). */
    double overlapFraction(const graph::Graph &g) const;
    /** Inline bytes layer @p l transforms. */
    Bytes inlineBytesAt(const graph::Graph &g, graph::NodeId l) const;
    /** @} */

    /**
     * Check plan invariants against @p g:
     *  C0 — every weight's chunks are fully covered by preload +
     *       assignments;
     *  C1 — z_w is no later than the first assigned layer;
     *  assignments land strictly before the consuming layer.
     */
    bool validate(const graph::Graph &g, bool fatal_on_error = true) const;

    /** One-line human summary. */
    std::string summary(const graph::Graph &g) const;

    /** Stable text serialization (one record per line). */
    std::string serialize() const;
    /** Parse serialize() output; fatal on malformed input. */
    static OverlapPlan deserialize(const std::string &text);

  private:
    Bytes chunk_bytes_ = mib(1);
    std::vector<WeightSchedule> schedules_;          // by WeightId
    std::vector<std::vector<ChunkAssignment>> by_layer_; // by NodeId
};

/**
 * Exact key of one finished window solve: everything a
 * single-configuration search that did not stop on the clock is a
 * function of. Models with equal canonical fingerprints differ only
 * in the bounds of rows their domains entail, which the search never
 * reads (CpModel::canonicalFingerprint()).
 */
struct SolveKey
{
    std::uint64_t canonicalFingerprint = 0;
    std::vector<std::int64_t> hint;
    std::uint64_t maxDecisions = 0;
    std::uint64_t restartConflictBase = 0;

    bool operator==(const SolveKey &) const = default;
};

/**
 * Plan memo: finished window solves, keyed exactly by SolveKey. A hit
 * is the result the search would return, so reusing it skips the
 * search without changing any plan, counter or trace: repeat
 * compiles, adaptive-fusion rounds that leave a window untouched, and
 * re-plans whose budget share cannot bind a window all reuse that
 * window's solve, and planning stays a pure function of (graph,
 * device, options).
 *
 * Bounded LRU at @p capacity entries. Internally synchronized
 * (lookups hand back copies, never pointers into the map), so
 * concurrent planners can share one memo.
 */
class PlanMemo
{
  public:
    explicit PlanMemo(std::size_t capacity = 1024)
        : capacity_(std::max<std::size_t>(capacity, 1))
    {
    }

    PlanMemo(const PlanMemo &) = delete;
    PlanMemo &operator=(const PlanMemo &) = delete;

    /** Finished solve stored under exactly @p key, if any. */
    std::optional<solver::SolveResult> lookupSolve(const SolveKey &key);

    /**
     * Remember @p result as the finished solve for @p key, replacing
     * any entry under the same key. The caller stores only results the
     * key fully determines: feasible, not time-limited.
     */
    void storeSolve(SolveKey key, solver::SolveResult result);

    std::size_t
    solveCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return solves_.size();
    }

  private:
    struct SolveEntry
    {
        SolveKey key;
        solver::SolveResult result;
        std::uint64_t lastUse = 0;
    };

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::uint64_t clock_ = 0;
    /** Finished solves by a hash of their SolveKey. */
    std::unordered_map<std::uint64_t, SolveEntry> solves_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_OVERLAP_PLAN_HH
