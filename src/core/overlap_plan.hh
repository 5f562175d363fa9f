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

#include <cstdint>
#include <string>
#include <vector>

#include "core/weight_slicer.hh"
#include "graph/graph.hh"

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

    /** Stable text serialization (one record per line). */
    std::string serialize() const;

  private:
    Bytes chunk_bytes_ = mib(1);
    std::vector<WeightSchedule> schedules_;          // by WeightId
    std::vector<std::vector<ChunkAssignment>> by_layer_; // by NodeId
};

/**
 * Empty: the planner keeps no memo, because solving a window's flow
 * again is cheap (src/solver/README.md, "Why the memo went"). Kept so
 * that perfbench, which is frozen and constructs one for
 * OpgParams::memo, compiles; it goes with the next change to the
 * benchmark.
 */
struct PlanMemo
{
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_OVERLAP_PLAN_HH
