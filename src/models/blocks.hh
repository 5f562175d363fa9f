/**
 * @file
 * Shared building blocks for the model zoo: multi-head attention,
 * transformer blocks, conv stages, and lowering-noise helpers.
 *
 * Layer counts in paper Table 6 refer to *low-level operator nodes after
 * graph lowering*. Real exported graphs (ONNX and friends) contain large
 * numbers of shape-arithmetic nodes (Shape/Gather/Unsqueeze/Concat on
 * small index tensors); we model those with shapeOps() so per-model layer
 * counts land near the published numbers and kernel-launch overhead is
 * represented faithfully.
 */

#ifndef FLASHMEM_MODELS_BLOCKS_HH
#define FLASHMEM_MODELS_BLOCKS_HH

#include <cstdint>
#include <string>

#include "graph/builder.hh"

namespace flashmem::models {

using graph::GraphBuilder;
using graph::NodeId;
using graph::OpKind;

/** Configuration of one multi-head attention sublayer. */
struct AttentionCfg
{
    std::int64_t dModel = 768;
    std::int64_t heads = 12;
    std::int64_t tokens = 128;      ///< query tokens
    std::int64_t kvTokens = 0;      ///< 0 = self-attention
    bool causalMask = false;
    /** Windowed attention (Hiera/SAM-2): keys per window; 0 = global. */
    std::int64_t windowTokens = 0;
    /** Grouped-query attention: key/value projection width; 0 = dModel. */
    std::int64_t kvDim = 0;
};

/**
 * Emit a lowered multi-head attention sublayer (projections, head
 * split/merge movement ops, scores, softmax, context, output projection).
 *
 * @return node producing the [tokens, dModel] output.
 */
NodeId attention(GraphBuilder &b, NodeId x, NodeId context,
                 const AttentionCfg &cfg, const std::string &prefix);

/** Configuration of a full pre-norm transformer block. */
struct TransformerBlockCfg
{
    AttentionCfg attn;
    std::int64_t ffnMult = 4;       ///< hidden = ffnMult * dModel
    std::int64_t ffnHidden = 0;     ///< explicit hidden width; 0 = use mult
    OpKind ffnActivation = OpKind::GeLU;
    bool useRmsNorm = false;        ///< Llama-style blocks
    /** Shape-arithmetic nodes to emit per block (see file docs). */
    int shapeOps = 0;
    /** DeepViT-style re-attention: extra transform on attention maps. */
    bool reAttention = false;
    /** Llama-style gated FFN (gate/up/down projections). */
    bool gatedFfn = false;
};

/** Emit one pre-norm transformer block; returns the residual output. */
NodeId transformerBlock(GraphBuilder &b, NodeId x,
                        const TransformerBlockCfg &cfg,
                        const std::string &prefix);

/**
 * Emit @p count small shape-arithmetic ops anchored at @p x. The chain's
 * result is unused by the main dataflow, matching dead shape subgraphs in
 * lowered exports; cost is dominated by kernel-launch overhead.
 */
void shapeOps(GraphBuilder &b, NodeId x, int count,
              const std::string &prefix);

/** Stable-Diffusion-style residual block: GN-SiLU-conv x2 + skip. */
NodeId sdResBlock(GraphBuilder &b, NodeId x, std::int64_t out_channels,
                  const std::string &prefix);

} // namespace flashmem::models

#endif // FLASHMEM_MODELS_BLOCKS_HH
