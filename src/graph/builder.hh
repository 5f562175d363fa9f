/**
 * @file
 * Fluent construction API for DNN graphs.
 *
 * The builder performs shape inference and MAC accounting for every
 * operator it emits, so model definitions in src/models stay close to the
 * architectural description of each network.
 */

#ifndef FLASHMEM_GRAPH_BUILDER_HH
#define FLASHMEM_GRAPH_BUILDER_HH

#include <string>
#include <vector>

#include "graph/graph.hh"

namespace flashmem::graph {

/** Fluent builder; append operators in execution order, then build(). */
class GraphBuilder
{
  public:
    GraphBuilder(std::string model_name, Precision precision);

    /** Finalize, validate, and return the graph. */
    Graph build();

    /** @name Graph sources. @{ */
    /** External input placeholder (counts as a zero-cost layer). */
    NodeId input(TensorShape shape, const std::string &name = "input");
    /** @} */

    /** @name Reusable operators. @{ */
    /**
     * Dense layer: input [..., k] x weight [k, n] -> [..., n].
     * Emits the weight tensor; optionally a fused bias weight.
     */
    NodeId matmul(NodeId in, std::int64_t out_features,
                  const std::string &name, bool bias = true);

    /** Weight-free batched matmul for attention scores / context. */
    NodeId attnMatmul(NodeId a, NodeId b, TensorShape out_shape,
                      std::uint64_t macs, const std::string &name);

    /** NCHW convolution with square kernel. */
    NodeId conv2d(NodeId in, std::int64_t out_channels, int kernel,
                  int stride, int padding, const std::string &name,
                  bool bias = true);
    /** @} */

    /** @name Elemental operators. @{ */
    NodeId add(NodeId a, NodeId b, const std::string &name);
    NodeId mul(NodeId a, NodeId b, const std::string &name);
    NodeId biasAdd(NodeId in, const std::string &name);
    NodeId activation(NodeId in, OpKind kind, const std::string &name);
    NodeId scale(NodeId in, const std::string &name);
    /** Token embedding lookup: ids -> [tokens, dim]. */
    NodeId embedding(std::int64_t tokens, std::int64_t vocab,
                     std::int64_t dim, const std::string &name);
    NodeId pooling(NodeId in, int kernel, int stride,
                   const std::string &name);
    NodeId upsample(NodeId in, int factor, const std::string &name);
    /** @} */

    /** @name Hierarchical operators. @{ */
    NodeId softmax(NodeId in, const std::string &name);
    NodeId layerNorm(NodeId in, const std::string &name);
    NodeId groupNorm(NodeId in, const std::string &name);
    NodeId rmsNorm(NodeId in, const std::string &name);
    /** @} */

    /** @name Movement operators. @{ */
    NodeId reshape(NodeId in, TensorShape out_shape,
                   const std::string &name);
    NodeId transpose(NodeId in, TensorShape out_shape,
                     const std::string &name);
    NodeId concat(const std::vector<NodeId> &ins, TensorShape out_shape,
                  const std::string &name);
    NodeId slice(NodeId in, TensorShape out_shape, const std::string &name);
    /** @} */

    /** Output shape of an already-added node. */
    const TensorShape &shapeOf(NodeId id) const;

    /** Number of nodes emitted so far. */
    std::size_t size() const { return graph_.layerCount(); }

  private:
    NodeId emit(OpKind kind, std::vector<NodeId> inputs,
                TensorShape out_shape, std::uint64_t macs,
                const std::string &name);
    /** Attach a weight of @p shape to @p node. */
    WeightId addWeight(NodeId node, TensorShape shape,
                       const std::string &name);

    Graph graph_;
    bool built_ = false;
};

} // namespace flashmem::graph

#endif // FLASHMEM_GRAPH_BUILDER_HH
