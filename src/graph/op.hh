/**
 * @file
 * Operator taxonomy for the DNN graph IR.
 *
 * The FlashMem load-capacity model (paper Table 5) classifies low-level
 * operators into three behavioural classes:
 *   - Elemental: linear memory access, low arithmetic, tolerate heavy
 *     inline loading (300% threshold).
 *   - Reusable: structured data reuse (Conv/MatMul), tolerate moderate
 *     inline loading (20% threshold) thanks to high arithmetic intensity.
 *   - Hierarchical: staged reductions with synchronization (Softmax,
 *     LayerNorm); no inline loading (0% threshold).
 * We add a fourth internal class, Movement, for pure layout operators
 * (Reshape/Transpose/...) that SmartMem-style planning can eliminate.
 */

#ifndef FLASHMEM_GRAPH_OP_HH
#define FLASHMEM_GRAPH_OP_HH

namespace flashmem::graph {

/** Low-level operator kinds after graph lowering. */
enum class OpKind
{
    // Reusable: multi-dimensional compute with data reuse.
    MatMul,
    Conv2D,
    AttentionMatMul,    // QK^T and PV batched matmuls
    // Elemental: memory-bound, element-wise or near element-wise.
    Add,
    Mul,
    BiasAdd,
    ReLU,
    GeLU,
    SiLU,
    Sigmoid,
    Tanh,
    Scale,
    Embedding,
    Pooling,
    Upsample,
    // Hierarchical: staged reductions with intra-kernel synchronization.
    Softmax,
    LayerNorm,
    GroupNorm,
    RMSNorm,
    // Movement: pure layout manipulation.
    Reshape,
    Transpose,
    Concat,
    Split,
    Slice,

    NumKinds,
};

/** Behavioural classes from paper Table 5 (+ Movement, see file docs). */
enum class OpClass
{
    Elemental,
    Reusable,
    Hierarchical,
    Movement,
};

/** Behavioural class of @p kind. */
OpClass opClass(OpKind kind);

/** Human name of an operator class, e.g. "reusable". */
const char *opClassName(OpClass cls);

} // namespace flashmem::graph

#endif // FLASHMEM_GRAPH_OP_HH
