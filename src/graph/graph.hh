/**
 * @file
 * DNN computational-graph IR.
 *
 * A Graph is a DAG of low-level operator nodes stored in execution order
 * (paper Section 3.1: the runtime imposes a linear order 1..N). Weight
 * tensors are first-class objects attached to their first consuming node,
 * mirroring the OPG formalization where i_w denotes the layer consuming
 * weight w.
 */

#ifndef FLASHMEM_GRAPH_GRAPH_HH
#define FLASHMEM_GRAPH_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "graph/op.hh"
#include "graph/tensor.hh"

namespace flashmem::graph {

using NodeId = std::int32_t;
using WeightId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/** A weight tensor streamed from disk at runtime. */
struct Weight
{
    WeightId id = -1;
    std::string name;
    TensorDesc desc;
    /** First (primary) consuming layer; the i_w of the OPG model. */
    NodeId consumer = kInvalidNode;

    Bytes bytes() const { return desc.bytes(); }
};

/** One low-level operator (layer) in execution order. */
struct Node
{
    NodeId id = kInvalidNode;
    std::string name;
    /** Dominant kind; for fused nodes, the most capacity-restrictive. */
    OpKind kind = OpKind::MatMul;
    /** Constituent kinds; singleton unless this node is a fusion. */
    std::vector<OpKind> fusedKinds;
    /** Producer nodes whose outputs this node reads. */
    std::vector<NodeId> inputs;
    TensorDesc output;
    /** Multiply-accumulate count (0 for non-compute ops). */
    std::uint64_t macs = 0;
    /** Weights consumed by this node (indices into Graph weights). */
    std::vector<WeightId> weights;

    // FMLINT(allow:test-only-api) tests observe which nodes fusion merged
    bool isFused() const { return fusedKinds.size() > 1; }
};

/**
 * Weighted DAG in execution order.
 *
 * Nodes are appended in topological order (inputs must already exist), so
 * NodeId doubles as the layer index of the OPG formalization.
 */
class Graph
{
  public:
    Graph() = default;
    Graph(std::string name, Precision precision)
        : name_(std::move(name)), precision_(precision)
    {}

    const std::string &name() const { return name_; }
    Precision precision() const { return precision_; }

    /** @name Construction (used by GraphBuilder and the fusion pass). @{ */
    NodeId addNode(Node node);
    WeightId attachWeight(NodeId consumer, TensorDesc desc,
                          std::string name);
    /** @} */

    /** @name Topology queries. @{ */
    std::size_t layerCount() const { return nodes_.size(); }
    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &node(NodeId id) const;

    std::size_t weightCount() const { return weights_.size(); }
    const std::vector<Weight> &weights() const { return weights_; }
    const Weight &weight(WeightId id) const;

    /** Node ids that read the output of @p id. */
    // FMLINT(allow:test-only-api) tests check the topology fusion leaves
    std::vector<NodeId> consumersOf(NodeId id) const;
    /** @} */

    /** @name Aggregate statistics. @{ */
    /** Total bytes of all weight tensors (the on-disk model size). */
    Bytes totalWeightBytes() const;
    /** Total trainable parameters (elements across weights). */
    std::int64_t totalParams() const;
    /** Total multiply-accumulate operations over all nodes. */
    std::uint64_t totalMacs() const;
    /** Sum of input activation bytes a node reads. */
    Bytes inputBytes(NodeId id) const;
    /** Largest single activation tensor in the graph. */
    Bytes peakActivationBytes() const;
    /** @} */

    /**
     * Check structural invariants: execution order is topological, weight
     * consumers exist, shapes are non-empty. Fatal on violation when
     * @p fatal_on_error, otherwise returns false.
     */
    bool validate(bool fatal_on_error = true) const;

  private:
    std::string name_;
    Precision precision_ = Precision::FP16;
    std::vector<Node> nodes_;
    std::vector<Weight> weights_;
};

} // namespace flashmem::graph

#endif // FLASHMEM_GRAPH_GRAPH_HH
