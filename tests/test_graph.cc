/**
 * @file
 * Unit tests for the graph IR: operator taxonomy, shape inference, MAC
 * accounting, DAG invariants, and builder behaviour.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "graph/graph.hh"
#include "graph/op.hh"
#include "graph/tensor.hh"

namespace flashmem::graph {
namespace {

TEST(Op, ClassificationMatchesPaperTable5)
{
    // Table 5: Elemental (ReLU, Add), Reusable (Conv, MatMul),
    // Hierarchical (LayerNorm, Softmax).
    EXPECT_EQ(opClass(OpKind::ReLU), OpClass::Elemental);
    EXPECT_EQ(opClass(OpKind::Add), OpClass::Elemental);
    EXPECT_EQ(opClass(OpKind::Conv2D), OpClass::Reusable);
    EXPECT_EQ(opClass(OpKind::MatMul), OpClass::Reusable);
    EXPECT_EQ(opClass(OpKind::LayerNorm), OpClass::Hierarchical);
    EXPECT_EQ(opClass(OpKind::Softmax), OpClass::Hierarchical);
    EXPECT_EQ(opClass(OpKind::Reshape), OpClass::Movement);
    EXPECT_EQ(opClass(OpKind::Transpose), OpClass::Movement);
}

TEST(Tensor, ShapeElementsAndBytes)
{
    TensorShape s{1, 197, 768};
    EXPECT_EQ(s.elements(), 197 * 768);
    EXPECT_EQ(s.rank(), 3u);
    TensorDesc d16{s, Precision::FP16};
    TensorDesc d32{s, Precision::FP32};
    EXPECT_EQ(d16.bytes(), static_cast<Bytes>(197 * 768 * 2));
    EXPECT_EQ(d32.bytes(), static_cast<Bytes>(197 * 768 * 4));
}

TEST(Tensor, ToString)
{
    TensorShape s{2, 3};
    EXPECT_EQ(s.toString(), "[2, 3]");
}

TEST(Builder, MatmulShapeAndMacs)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 128, 512});
    auto y = b.matmul(x, 1024, "fc");
    EXPECT_EQ(b.shapeOf(y), (TensorShape{1, 128, 1024}));

    Graph g = b.build();
    // 128 * 512 * 1024 MACs.
    EXPECT_EQ(g.totalMacs(), 128ull * 512 * 1024);
    // weight [512,1024] + bias [1024].
    EXPECT_EQ(g.totalParams(), 512 * 1024 + 1024);
}

TEST(Builder, ConvShapeInference)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 3, 224, 224});
    auto y = b.conv2d(x, 64, 7, 2, 3, "stem");
    EXPECT_EQ(b.shapeOf(y), (TensorShape{1, 64, 112, 112}));

    Graph g = b.build();
    // MACs = 64 * 112*112 * 3 * 7 * 7.
    EXPECT_EQ(g.totalMacs(), 64ull * 112 * 112 * 3 * 7 * 7);
}

TEST(Builder, WeightsAttachToConsumer)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 16});
    auto y = b.matmul(x, 8, "fc", /*bias=*/false);
    Graph g = b.build();

    ASSERT_EQ(g.weightCount(), 1u);
    const Weight &w = g.weight(0);
    EXPECT_EQ(w.consumer, y);
    EXPECT_EQ(w.desc.shape, (TensorShape{16, 8}));
    EXPECT_EQ(g.node(y).weights.size(), 1u);
}

TEST(Builder, ReshapePreservesElements)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 64, 49});
    auto y = b.reshape(x, {1, 7, 7, 64}, "r");
    EXPECT_EQ(b.shapeOf(y).elements(), 64 * 49);
}

TEST(Builder, EmbeddingIsWeightHeavyButZeroMac)
{
    GraphBuilder b("toy", Precision::FP16);
    b.embedding(64, 50257, 768, "wte");
    Graph g = b.build();
    EXPECT_EQ(g.totalParams(), 50257ll * 768);
    EXPECT_EQ(g.totalMacs(), 0u);
}

TEST(Graph, TopologicalOrderEnforced)
{
    Graph g("bad", Precision::FP16);
    Node n;
    n.name = "first";
    n.kind = OpKind::Add;
    n.output = TensorDesc{TensorShape{1}, Precision::FP16};
    g.addNode(n);

    Node n2;
    n2.name = "self_loop";
    n2.kind = OpKind::Add;
    n2.inputs = {1}; // would reference itself (id 1)
    n2.output = TensorDesc{TensorShape{1}, Precision::FP16};
    EXPECT_DEATH({ g.addNode(n2); }, "topological");
}

TEST(Graph, ConsumersOf)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 8});
    auto a = b.activation(x, OpKind::ReLU, "relu");
    auto c = b.add(x, a, "res");
    Graph g = b.build();

    auto consumers = g.consumersOf(x);
    EXPECT_EQ(consumers.size(), 2u);
    EXPECT_EQ(g.consumersOf(a), std::vector<NodeId>{c});
    EXPECT_TRUE(g.consumersOf(c).empty());
}

TEST(Graph, InputBytesSumsProducers)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 100});
    auto y = b.activation(x, OpKind::ReLU, "relu");
    auto z = b.add(x, y, "add");
    Graph g = b.build();
    EXPECT_EQ(g.inputBytes(z), 2u * 100 * 2);
}

TEST(Graph, ValidateDetectsAcyclicWellFormed)
{
    GraphBuilder b("ok", Precision::FP32);
    auto x = b.input({4, 4});
    b.matmul(x, 4, "fc");
    Graph g = b.build();
    EXPECT_TRUE(g.validate(false));
}

TEST(Graph, AggregateStats)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 32});
    auto h = b.matmul(x, 64, "fc1", false);
    h = b.activation(h, OpKind::GeLU, "act");
    b.matmul(h, 32, "fc2", false);
    Graph g = b.build();

    EXPECT_EQ(g.layerCount(), 4u);
    EXPECT_EQ(g.weightCount(), 2u);
    EXPECT_EQ(g.totalWeightBytes(), (32u * 64 + 64u * 32) * 2);
    EXPECT_EQ(g.peakActivationBytes(), 64u * 2);
}

TEST(Graph, FusedKindsDefaultSingleton)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({1, 8});
    auto y = b.activation(x, OpKind::ReLU, "r");
    Graph g = b.build();
    EXPECT_EQ(g.node(y).fusedKinds.size(), 1u);
    EXPECT_FALSE(g.node(y).isFused());
}

// Property-style sweep: matmul MACs scale linearly in each dimension.
class MatmulMacsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MatmulMacsProperty, LinearScaling)
{
    int scale = GetParam();
    GraphBuilder b("p", Precision::FP16);
    auto x = b.input({1, 16, static_cast<std::int64_t>(32) * scale});
    b.matmul(x, 64, "fc", false);
    Graph g = b.build();
    EXPECT_EQ(g.totalMacs(), 16ull * 32 * scale * 64);
}

INSTANTIATE_TEST_SUITE_P(Scales, MatmulMacsProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

} // namespace
} // namespace flashmem::graph
