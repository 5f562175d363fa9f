#include "core/overlap_plan.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

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
OverlapPlan::summary(const graph::Graph &g) const
{
    std::ostringstream os;
    os << "plan[" << g.name() << "]: preload "
       << formatBytes(preloadBytes(g)) << ", streamed "
       << formatBytes(streamedBytes(g)) << " ("
       << formatDouble(100.0 * overlapFraction(g), 1) << "% overlap)";
    return os.str();
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

namespace {

/** FNV-1a, the slot hash of the solve store. */
class Fnv1a
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001B3ull;
        }
    }

    template <typename T>
    void
    addPod(const T &value)
    {
        add(&value, sizeof(value));
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/** Map slot of a SolveKey; lookups still compare the whole key. */
std::uint64_t
solveKeyHash(const SolveKey &key)
{
    Fnv1a sum;
    sum.addPod(key.canonicalFingerprint);
    sum.addPod(key.maxDecisions);
    sum.addPod(key.restartConflictBase);
    sum.add(key.hint.data(), key.hint.size() * sizeof(std::int64_t));
    return sum.digest();
}

} // namespace

std::optional<solver::SolveResult>
PlanMemo::lookupSolve(const SolveKey &key)
{
    const auto slot = solveKeyHash(key);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = solves_.find(slot);
    if (it == solves_.end() || it->second.key != key)
        return std::nullopt;
    it->second.lastUse = ++clock_;
    return it->second.result;
}

void
PlanMemo::storeSolve(SolveKey key, solver::SolveResult result)
{
    const auto slot = solveKeyHash(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (!solves_.count(slot) && solves_.size() >= capacity_) {
        // Evict the least recently used entry, ties broken on the slot
        // so the victim never depends on hash-table iteration order
        // (linear scan: eviction is rare, the map small).
        auto victim = solves_.begin();
        for (auto it = solves_.begin(); it != solves_.end(); ++it) {
            if (it->second.lastUse < victim->second.lastUse ||
                (it->second.lastUse == victim->second.lastUse &&
                 it->first < victim->first))
                victim = it;
        }
        solves_.erase(victim);
    }
    solves_[slot] = {std::move(key), std::move(result), ++clock_};
}

OverlapPlan
OverlapPlan::deserialize(const std::string &text)
{
    OverlapPlan plan;
    plan.schedules_.clear();
    plan.by_layer_.clear();

    std::istringstream is(text);
    std::string tag;
    std::size_t layers = 0;
    std::vector<ChunkAssignment> pending;
    while (is >> tag) {
        if (tag == "chunk") {
            is >> plan.chunk_bytes_;
        } else if (tag == "layers") {
            is >> layers;
        } else if (tag == "w") {
            WeightSchedule s;
            is >> s.weight >> s.preloadChunks >> s.earliestLoadLayer;
            if (!is.fail() && s.preloadChunks < 0)
                FM_FATAL("overlap plan: weight ", s.weight,
                         " preloads ", s.preloadChunks, " chunks");
            plan.schedules_.push_back(s);
        } else if (tag == "x") {
            ChunkAssignment a;
            is >> a.weight >> a.layer >> a.chunks;
            if (!is.fail() && a.chunks <= 0)
                FM_FATAL("overlap plan: assignment of ", a.chunks,
                         " chunks at layer ", a.layer);
            pending.push_back(a);
        } else {
            FM_FATAL("overlap plan: unknown record '", tag, "'");
        }
        FM_ASSERT(!is.fail(), "overlap plan: malformed record");
    }
    plan.by_layer_.resize(layers);
    for (const auto &a : pending) {
        if (a.layer < 0 || static_cast<std::size_t>(a.layer) >= layers)
            FM_FATAL("overlap plan: assignment layer ", a.layer,
                     " outside [0, ", layers, ")");
        plan.by_layer_[a.layer].push_back(a);
    }
    return plan;
}

} // namespace flashmem::core
