#include "core/overlap_plan.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace flashmem::core {

OverlapPlan::OverlapPlan(const graph::Graph &g, Bytes chunk_bytes)
    : chunk_bytes_(chunk_bytes)
{
    schedules_.resize(g.weightCount());
    for (std::size_t w = 0; w < g.weightCount(); ++w)
        schedules_[w].weight = static_cast<graph::WeightId>(w);
    by_layer_.resize(g.layerCount());
}

void
OverlapPlan::setPreloadChunks(graph::WeightId w, std::int64_t chunks)
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    FM_ASSERT(chunks >= 0, "negative preload chunks");
    schedules_[w].preloadChunks = chunks;
}

void
OverlapPlan::setEarliestLoad(graph::WeightId w, graph::NodeId layer)
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    schedules_[w].earliestLoadLayer = layer;
}

void
OverlapPlan::addAssignment(graph::WeightId w, graph::NodeId layer,
                           std::int64_t chunks)
{
    FM_ASSERT(layer >= 0 && layer < static_cast<graph::NodeId>(
                                        by_layer_.size()),
              "bad layer ", layer);
    FM_ASSERT(chunks > 0, "empty assignment");
    by_layer_[layer].push_back({w, layer, chunks});
}

const WeightSchedule &
OverlapPlan::schedule(graph::WeightId w) const
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    return schedules_[w];
}

const std::vector<ChunkAssignment> &
OverlapPlan::assignmentsAt(graph::NodeId l) const
{
    FM_ASSERT(l >= 0 && l < static_cast<graph::NodeId>(by_layer_.size()),
              "bad layer ", l);
    return by_layer_[l];
}

Bytes
OverlapPlan::preloadBytes(const graph::Graph &g) const
{
    WeightSlicer slicer(chunk_bytes_);
    Bytes total = 0;
    for (const auto &s : schedules_)
        total += slicer.bytesForChunks(g.weight(s.weight),
                                       s.preloadChunks);
    return total;
}

Bytes
OverlapPlan::streamedBytes(const graph::Graph &g) const
{
    return g.totalWeightBytes() - preloadBytes(g);
}

double
OverlapPlan::overlapFraction(const graph::Graph &g) const
{
    Bytes total = g.totalWeightBytes();
    if (total == 0)
        return 0.0;
    return static_cast<double>(streamedBytes(g)) /
           static_cast<double>(total);
}

Bytes
OverlapPlan::inlineBytesAt(const graph::Graph &g, graph::NodeId l) const
{
    WeightSlicer slicer(chunk_bytes_);
    Bytes total = 0;
    for (const auto &a : assignmentsAt(l)) {
        const auto &w = g.weight(a.weight);
        // Bound by the weight's true bytes (short last chunk).
        total += std::min<Bytes>(
            static_cast<Bytes>(a.chunks) * chunk_bytes_, w.bytes());
    }
    return total;
}

bool
OverlapPlan::validate(const graph::Graph &g, bool fatal_on_error) const
{
    auto fail = [&](const std::string &msg) -> bool {
        if (fatal_on_error)
            FM_FATAL("overlap plan for '", g.name(), "': ", msg);
        warn("overlap plan for '", g.name(), "': ", msg);
        return false;
    };

    if (schedules_.size() != g.weightCount() ||
        by_layer_.size() != g.layerCount())
        return fail("plan shape does not match graph");

    WeightSlicer slicer(chunk_bytes_);
    std::vector<std::int64_t> assigned(g.weightCount(), 0);
    std::vector<graph::NodeId> first_layer(g.weightCount(),
                                           graph::kInvalidNode);

    for (std::size_t l = 0; l < by_layer_.size(); ++l) {
        for (const auto &a : by_layer_[l]) {
            if (a.weight < 0 ||
                a.weight >= static_cast<graph::WeightId>(
                                g.weightCount()))
                return fail("assignment references bad weight");
            const auto &w = g.weight(a.weight);
            // Transform must land strictly before the consuming layer.
            if (static_cast<graph::NodeId>(l) >= w.consumer) {
                return fail("weight '" + w.name +
                            "' transformed at/after its consumer");
            }
            assigned[a.weight] += a.chunks;
            if (first_layer[a.weight] == graph::kInvalidNode) {
                first_layer[a.weight] =
                    static_cast<graph::NodeId>(l);
            }
        }
    }

    for (const auto &s : schedules_) {
        const auto &w = g.weight(s.weight);
        std::int64_t total = slicer.chunkCount(w);
        // C0: completeness of allocation.
        if (s.preloadChunks + assigned[s.weight] != total) {
            return fail("weight '" + w.name + "' covers " +
                        std::to_string(s.preloadChunks +
                                       assigned[s.weight]) +
                        " of " + std::to_string(total) + " chunks");
        }
        // C1: z_w no later than the first transforming layer.
        if (assigned[s.weight] > 0) {
            if (s.earliestLoadLayer == graph::kInvalidNode)
                return fail("weight '" + w.name + "' streams but has "
                            "no earliest-load layer");
            if (s.earliestLoadLayer > first_layer[s.weight])
                return fail("weight '" + w.name +
                            "' loads after its first transform (C1)");
        }
    }
    return true;
}

std::string
OverlapPlan::serialize() const
{
    std::ostringstream os;
    os << "chunk " << chunk_bytes_ << "\n";
    os << "layers " << by_layer_.size() << "\n";
    for (const auto &s : schedules_) {
        os << "w " << s.weight << " " << s.preloadChunks << " "
           << s.earliestLoadLayer << "\n";
    }
    for (const auto &layer : by_layer_) {
        for (const auto &a : layer)
            os << "x " << a.weight << " " << a.layer << " " << a.chunks
               << "\n";
    }
    return os.str();
}

} // namespace flashmem::core
