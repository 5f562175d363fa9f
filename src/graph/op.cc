#include "graph/op.hh"

#include <array>

#include "common/logging.hh"

namespace flashmem::graph {

namespace {

struct OpInfo
{
    OpKind kind;
    OpClass cls;
};

constexpr std::array<OpInfo, static_cast<std::size_t>(OpKind::NumKinds)>
kOpInfo{{
    {OpKind::MatMul, OpClass::Reusable},
    {OpKind::Conv2D, OpClass::Reusable},
    {OpKind::AttentionMatMul, OpClass::Reusable},
    {OpKind::Add, OpClass::Elemental},
    {OpKind::Mul, OpClass::Elemental},
    {OpKind::BiasAdd, OpClass::Elemental},
    {OpKind::ReLU, OpClass::Elemental},
    {OpKind::GeLU, OpClass::Elemental},
    {OpKind::SiLU, OpClass::Elemental},
    {OpKind::Sigmoid, OpClass::Elemental},
    {OpKind::Tanh, OpClass::Elemental},
    {OpKind::Scale, OpClass::Elemental},
    {OpKind::Embedding, OpClass::Elemental},
    {OpKind::Pooling, OpClass::Elemental},
    {OpKind::Upsample, OpClass::Elemental},
    {OpKind::Softmax, OpClass::Hierarchical},
    {OpKind::LayerNorm, OpClass::Hierarchical},
    {OpKind::GroupNorm, OpClass::Hierarchical},
    {OpKind::RMSNorm, OpClass::Hierarchical},
    {OpKind::Reshape, OpClass::Movement},
    {OpKind::Transpose, OpClass::Movement},
    {OpKind::Concat, OpClass::Movement},
    {OpKind::Split, OpClass::Movement},
    {OpKind::Slice, OpClass::Movement},
}};

const OpInfo &
info(OpKind kind)
{
    auto idx = static_cast<std::size_t>(kind);
    FM_ASSERT(idx < kOpInfo.size(), "bad OpKind ", idx);
    FM_ASSERT(kOpInfo[idx].kind == kind, "kOpInfo table out of order");
    return kOpInfo[idx];
}

} // namespace

OpClass
opClass(OpKind kind)
{
    return info(kind).cls;
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Elemental:
        return "elemental";
      case OpClass::Reusable:
        return "reusable";
      case OpClass::Hierarchical:
        return "hierarchical";
      case OpClass::Movement:
        return "movement";
    }
    return "?";
}

} // namespace flashmem::graph
