#include "graph/graph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::graph {

NodeId
Graph::addNode(Node node)
{
    node.id = static_cast<NodeId>(nodes_.size());
    if (node.fusedKinds.empty())
        node.fusedKinds.push_back(node.kind);
    for (NodeId in : node.inputs) {
        FM_ASSERT(in >= 0 && in < node.id,
                  "node '", node.name, "' input ", in,
                  " breaks topological order");
    }
    nodes_.push_back(std::move(node));
    return nodes_.back().id;
}

WeightId
Graph::attachWeight(NodeId consumer, TensorDesc desc, std::string name)
{
    FM_ASSERT(consumer >= 0 &&
              consumer < static_cast<NodeId>(nodes_.size()),
              "attachWeight: bad consumer ", consumer);
    Weight w;
    w.id = static_cast<WeightId>(weights_.size());
    w.name = std::move(name);
    w.desc = std::move(desc);
    w.consumer = consumer;
    nodes_[consumer].weights.push_back(w.id);
    weights_.push_back(std::move(w));
    return weights_.back().id;
}

const Node &
Graph::node(NodeId id) const
{
    FM_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
              "bad node id ", id);
    return nodes_[id];
}

const Weight &
Graph::weight(WeightId id) const
{
    FM_ASSERT(id >= 0 && id < static_cast<WeightId>(weights_.size()),
              "bad weight id ", id);
    return weights_[id];
}

std::vector<NodeId>
Graph::consumersOf(NodeId id) const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_) {
        if (std::find(n.inputs.begin(), n.inputs.end(), id) !=
            n.inputs.end()) {
            out.push_back(n.id);
        }
    }
    return out;
}

Bytes
Graph::totalWeightBytes() const
{
    Bytes total = 0;
    for (const auto &w : weights_)
        total += w.bytes();
    return total;
}

std::int64_t
Graph::totalParams() const
{
    std::int64_t total = 0;
    for (const auto &w : weights_)
        total += w.desc.shape.elements();
    return total;
}

std::uint64_t
Graph::totalMacs() const
{
    std::uint64_t total = 0;
    for (const auto &n : nodes_)
        total += n.macs;
    return total;
}

Bytes
Graph::inputBytes(NodeId id) const
{
    Bytes total = 0;
    for (NodeId in : node(id).inputs)
        total += node(in).output.bytes();
    return total;
}

Bytes
Graph::peakActivationBytes() const
{
    Bytes peak = 0;
    for (const auto &n : nodes_)
        peak = std::max(peak, n.output.bytes());
    return peak;
}

bool
Graph::validate(bool fatal_on_error) const
{
    auto fail = [&](const std::string &msg) -> bool {
        if (fatal_on_error)
            FM_FATAL("graph '", name_, "': ", msg);
        warn("graph '", name_, "': ", msg);
        return false;
    };

    for (const auto &n : nodes_) {
        if (n.id < 0 || n.id >= static_cast<NodeId>(nodes_.size()))
            return fail("node id out of range");
        for (NodeId in : n.inputs) {
            if (in < 0 || in >= n.id)
                return fail("node '" + n.name + "' violates topo order");
        }
        if (n.output.shape.rank() == 0)
            return fail("node '" + n.name + "' has no output shape");
        if (n.fusedKinds.empty())
            return fail("node '" + n.name + "' has empty fusedKinds");
        for (WeightId wid : n.weights) {
            if (wid < 0 || wid >= static_cast<WeightId>(weights_.size()))
                return fail("node '" + n.name + "' has bad weight id");
            if (weights_[wid].consumer != n.id)
                return fail("weight consumer mismatch at '" + n.name + "'");
        }
    }
    for (const auto &w : weights_) {
        if (w.consumer < 0 ||
            w.consumer >= static_cast<NodeId>(nodes_.size()))
            return fail("weight '" + w.name + "' has bad consumer");
        if (w.bytes() == 0)
            return fail("weight '" + w.name + "' is empty");
    }
    return true;
}

} // namespace flashmem::graph
