#include "graph/builder.hh"

#include "common/logging.hh"

namespace flashmem::graph {

namespace {

/** Elements of an activation used as the generic cost of pointwise ops. */
std::uint64_t
elems(const TensorShape &s)
{
    return static_cast<std::uint64_t>(s.elements());
}

} // namespace

GraphBuilder::GraphBuilder(std::string model_name, Precision precision)
    : graph_(std::move(model_name), precision)
{
}

Graph
GraphBuilder::build()
{
    FM_ASSERT(!built_, "GraphBuilder::build() called twice");
    built_ = true;
    graph_.validate();
    return std::move(graph_);
}

NodeId
GraphBuilder::emit(OpKind kind, std::vector<NodeId> inputs,
                   TensorShape out_shape, std::uint64_t macs,
                   const std::string &name)
{
    Node n;
    n.name = name;
    n.kind = kind;
    n.inputs = std::move(inputs);
    n.output = TensorDesc{std::move(out_shape), graph_.precision()};
    n.macs = macs;
    return graph_.addNode(std::move(n));
}

WeightId
GraphBuilder::addWeight(NodeId node, TensorShape shape,
                        const std::string &name)
{
    TensorDesc desc{std::move(shape), graph_.precision()};
    return graph_.attachWeight(node, std::move(desc), name);
}

NodeId
GraphBuilder::input(TensorShape shape, const std::string &name)
{
    return emit(OpKind::Reshape, {}, std::move(shape), 0, name);
}

NodeId
GraphBuilder::matmul(NodeId in, std::int64_t out_features,
                     const std::string &name, bool bias)
{
    const TensorShape &in_shape = shapeOf(in);
    FM_ASSERT(in_shape.rank() >= 1, "matmul input must have rank >= 1");
    std::int64_t k = in_shape.dim(in_shape.rank() - 1);
    std::int64_t rows = in_shape.elements() / k;

    std::vector<std::int64_t> out_dims = in_shape.dims();
    out_dims.back() = out_features;

    auto macs = static_cast<std::uint64_t>(rows) * k * out_features;
    NodeId id = emit(OpKind::MatMul, {in}, TensorShape(out_dims), macs,
                     name);
    addWeight(id, {k, out_features}, name + ".weight");
    if (bias)
        addWeight(id, {out_features}, name + ".bias");
    return id;
}

NodeId
GraphBuilder::attnMatmul(NodeId a, NodeId b, TensorShape out_shape,
                         std::uint64_t macs, const std::string &name)
{
    return emit(OpKind::AttentionMatMul, {a, b}, std::move(out_shape),
                macs, name);
}

NodeId
GraphBuilder::conv2d(NodeId in, std::int64_t out_channels, int kernel,
                     int stride, int padding, const std::string &name,
                     bool bias)
{
    const TensorShape &in_shape = shapeOf(in);
    FM_ASSERT(in_shape.rank() == 4, "conv2d expects NCHW, got ",
              in_shape.toString());
    std::int64_t n = in_shape.dim(0);
    std::int64_t c = in_shape.dim(1);
    std::int64_t h = in_shape.dim(2);
    std::int64_t w = in_shape.dim(3);
    std::int64_t oh = (h + 2 * padding - kernel) / stride + 1;
    std::int64_t ow = (w + 2 * padding - kernel) / stride + 1;
    FM_ASSERT(oh > 0 && ow > 0, "conv2d '", name,
              "' produces empty output");

    auto macs = static_cast<std::uint64_t>(n) * out_channels * oh * ow *
                c * kernel * kernel;
    NodeId id = emit(OpKind::Conv2D, {in},
                     TensorShape{n, out_channels, oh, ow}, macs, name);
    addWeight(id, {out_channels, c, kernel, kernel}, name + ".weight");
    if (bias)
        addWeight(id, {out_channels}, name + ".bias");
    return id;
}

NodeId
GraphBuilder::add(NodeId a, NodeId b, const std::string &name)
{
    // Allow numpy-style broadcast of the smaller operand.
    FM_ASSERT(shapeOf(a).elements() % shapeOf(b).elements() == 0,
              "add '", name, "' operands not broadcastable");
    return emit(OpKind::Add, {a, b}, shapeOf(a), 0, name);
}

NodeId
GraphBuilder::mul(NodeId a, NodeId b, const std::string &name)
{
    return emit(OpKind::Mul, {a, b}, shapeOf(a), 0, name);
}

NodeId
GraphBuilder::biasAdd(NodeId in, const std::string &name)
{
    const TensorShape &s = shapeOf(in);
    // Channel dimension: dim 1 for NCHW feature maps, innermost otherwise.
    std::int64_t channels =
        s.rank() == 4 ? s.dim(1) : s.dim(s.rank() - 1);
    NodeId id = emit(OpKind::BiasAdd, {in}, s, 0, name);
    addWeight(id, {channels}, name + ".bias");
    return id;
}

NodeId
GraphBuilder::activation(NodeId in, OpKind kind, const std::string &name)
{
    FM_ASSERT(opClass(kind) == OpClass::Elemental,
              "activation must be an elemental kind");
    return emit(kind, {in}, shapeOf(in), 0, name);
}

NodeId
GraphBuilder::scale(NodeId in, const std::string &name)
{
    return emit(OpKind::Scale, {in}, shapeOf(in), 0, name);
}

NodeId
GraphBuilder::embedding(std::int64_t tokens, std::int64_t vocab,
                        std::int64_t dim, const std::string &name)
{
    NodeId id = emit(OpKind::Embedding, {}, TensorShape{tokens, dim}, 0,
                     name);
    addWeight(id, {vocab, dim}, name + ".weight");
    return id;
}

NodeId
GraphBuilder::pooling(NodeId in, int kernel, int stride,
                      const std::string &name)
{
    const TensorShape &s = shapeOf(in);
    FM_ASSERT(s.rank() == 4, "pooling expects NCHW");
    std::int64_t oh = (s.dim(2) - kernel) / stride + 1;
    std::int64_t ow = (s.dim(3) - kernel) / stride + 1;
    if (oh < 1)
        oh = 1;
    if (ow < 1)
        ow = 1;
    return emit(OpKind::Pooling, {in},
                TensorShape{s.dim(0), s.dim(1), oh, ow}, 0, name);
}

NodeId
GraphBuilder::upsample(NodeId in, int factor, const std::string &name)
{
    const TensorShape &s = shapeOf(in);
    FM_ASSERT(s.rank() == 4, "upsample expects NCHW");
    return emit(OpKind::Upsample, {in},
                TensorShape{s.dim(0), s.dim(1), s.dim(2) * factor,
                            s.dim(3) * factor},
                0, name);
}

NodeId
GraphBuilder::softmax(NodeId in, const std::string &name)
{
    return emit(OpKind::Softmax, {in}, shapeOf(in),
                4 * elems(shapeOf(in)), name);
}

NodeId
GraphBuilder::layerNorm(NodeId in, const std::string &name)
{
    // By value: emit() grows the node vector and would dangle a
    // reference, which the s.dim()/s.rank() reads below still need.
    const TensorShape s = shapeOf(in);
    NodeId id = emit(OpKind::LayerNorm, {in}, s, 4 * elems(s), name);
    addWeight(id, {2, s.dim(s.rank() - 1)}, name + ".gamma_beta");
    return id;
}

NodeId
GraphBuilder::groupNorm(NodeId in, const std::string &name)
{
    const TensorShape s = shapeOf(in); // by value; emit() reallocates
    NodeId id = emit(OpKind::GroupNorm, {in}, s, 4 * elems(s), name);
    addWeight(id, {2, s.dim(1)}, name + ".gamma_beta");
    return id;
}

NodeId
GraphBuilder::rmsNorm(NodeId in, const std::string &name)
{
    const TensorShape s = shapeOf(in); // by value; emit() reallocates
    NodeId id = emit(OpKind::RMSNorm, {in}, s, 3 * elems(s), name);
    addWeight(id, {s.dim(s.rank() - 1)}, name + ".gamma");
    return id;
}

NodeId
GraphBuilder::reshape(NodeId in, TensorShape out_shape,
                      const std::string &name)
{
    FM_ASSERT(shapeOf(in).elements() == out_shape.elements(),
              "reshape '", name, "' changes element count");
    return emit(OpKind::Reshape, {in}, std::move(out_shape), 0, name);
}

NodeId
GraphBuilder::transpose(NodeId in, TensorShape out_shape,
                        const std::string &name)
{
    FM_ASSERT(shapeOf(in).elements() == out_shape.elements(),
              "transpose '", name, "' changes element count");
    return emit(OpKind::Transpose, {in}, std::move(out_shape), 0, name);
}

NodeId
GraphBuilder::concat(const std::vector<NodeId> &ins, TensorShape out_shape,
                     const std::string &name)
{
    FM_ASSERT(!ins.empty(), "concat needs at least one input");
    return emit(OpKind::Concat, ins, std::move(out_shape), 0, name);
}

NodeId
GraphBuilder::slice(NodeId in, TensorShape out_shape,
                    const std::string &name)
{
    return emit(OpKind::Slice, {in}, std::move(out_shape), 0, name);
}

const TensorShape &
GraphBuilder::shapeOf(NodeId id) const
{
    return graph_.node(id).output.shape;
}

} // namespace flashmem::graph
