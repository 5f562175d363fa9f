#include "models/blocks.hh"

#include "common/logging.hh"

namespace flashmem::models {

using graph::TensorShape;

NodeId
attention(GraphBuilder &b, NodeId x, NodeId context,
          const AttentionCfg &cfg, const std::string &prefix)
{
    const std::int64_t d = cfg.dModel;
    const std::int64_t h = cfg.heads;
    const std::int64_t hd = d / h;
    const std::int64_t tq = cfg.tokens;
    const std::int64_t tk = cfg.kvTokens > 0 ? cfg.kvTokens : cfg.tokens;
    const std::int64_t kvd = cfg.kvDim > 0 ? cfg.kvDim : d;
    // Effective keys each query attends to (windowed attention shrinks
    // the score matrix without changing projection sizes).
    const std::int64_t tk_eff =
        cfg.windowTokens > 0 ? cfg.windowTokens : tk;
    FM_ASSERT(d % h == 0, "dModel must divide heads");

    NodeId kv_src = (cfg.kvTokens > 0) ? context : x;

    auto q = b.matmul(x, d, prefix + ".q");
    auto k = b.matmul(kv_src, kvd, prefix + ".k");
    auto v = b.matmul(kv_src, kvd, prefix + ".v");

    const std::int64_t kv_heads = h * kvd / d;
    const std::int64_t kv_hd = kvd / kv_heads;

    // Head split: reshape + transpose per projection.
    auto qh = b.transpose(b.reshape(q, {tq, h, hd}, prefix + ".q_r"),
                          {h, tq, hd}, prefix + ".q_t");
    auto kh = b.transpose(b.reshape(k, {tk, kv_heads, kv_hd},
                                    prefix + ".k_r"),
                          {kv_heads, kv_hd, tk}, prefix + ".k_t");
    auto vh = b.transpose(b.reshape(v, {tk, kv_heads, kv_hd},
                                    prefix + ".v_r"),
                          {kv_heads, tk, kv_hd}, prefix + ".v_t");

    auto scores_macs = static_cast<std::uint64_t>(h) * tq * tk_eff * hd;
    auto scores = b.attnMatmul(qh, kh, {h, tq, tk_eff}, scores_macs,
                               prefix + ".qk");
    scores = b.scale(scores, prefix + ".scale");
    if (cfg.causalMask) {
        auto mask = b.slice(scores, {tq, tk_eff}, prefix + ".mask_slice");
        scores = b.add(scores, b.reshape(mask, {1, tq, tk_eff},
                                         prefix + ".mask_r"),
                       prefix + ".mask_add");
    }
    scores = b.softmax(scores, prefix + ".softmax");

    auto ctx_macs = static_cast<std::uint64_t>(h) * tq * tk_eff * hd;
    auto ctx = b.attnMatmul(scores, vh, {h, tq, hd}, ctx_macs,
                            prefix + ".pv");
    auto merged = b.reshape(b.transpose(ctx, {tq, h, hd}, prefix + ".c_t"),
                            {tq, d}, prefix + ".c_r");
    return b.matmul(merged, d, prefix + ".o");
}

NodeId
transformerBlock(GraphBuilder &b, NodeId x, const TransformerBlockCfg &cfg,
                 const std::string &prefix)
{
    const std::int64_t d = cfg.attn.dModel;

    auto norm1 = cfg.useRmsNorm ? b.rmsNorm(x, prefix + ".ln1")
                                : b.layerNorm(x, prefix + ".ln1");
    auto attn_out = attention(b, norm1, graph::kInvalidNode, cfg.attn,
                              prefix + ".attn");
    if (cfg.reAttention) {
        // DeepViT re-attention: learned mixing of attention output across
        // heads, lowered as an extra projection + norm.
        attn_out = b.matmul(attn_out, d, prefix + ".reattn", false);
        attn_out = b.layerNorm(attn_out, prefix + ".reattn_norm");
    }
    auto res1 = b.add(x, attn_out, prefix + ".res1");

    auto norm2 = cfg.useRmsNorm ? b.rmsNorm(res1, prefix + ".ln2")
                                : b.layerNorm(res1, prefix + ".ln2");
    const std::int64_t ffn_hidden =
        cfg.ffnHidden > 0 ? cfg.ffnHidden : cfg.ffnMult * d;
    NodeId hcur;
    if (cfg.gatedFfn) {
        auto gate = b.matmul(norm2, ffn_hidden, prefix + ".gate", false);
        gate = b.activation(gate, cfg.ffnActivation, prefix + ".ffn_act");
        auto up = b.matmul(norm2, ffn_hidden, prefix + ".up", false);
        hcur = b.mul(gate, up, prefix + ".ffn_mul");
        hcur = b.matmul(hcur, d, prefix + ".down", false);
    } else {
        hcur = b.matmul(norm2, ffn_hidden, prefix + ".fc1");
        hcur = b.activation(hcur, cfg.ffnActivation, prefix + ".ffn_act");
        hcur = b.matmul(hcur, d, prefix + ".fc2");
    }
    auto out = b.add(res1, hcur, prefix + ".res2");

    if (cfg.shapeOps > 0)
        shapeOps(b, out, cfg.shapeOps, prefix + ".shape");
    return out;
}

void
shapeOps(GraphBuilder &b, NodeId x, int count, const std::string &prefix)
{
    if (count <= 0)
        return;
    // A small "shape tensor" extracted from the activation, then a chain
    // of index-arithmetic ops over it.
    NodeId cur = b.slice(x, {8}, prefix + ".0");
    for (int i = 1; i < count; ++i) {
        switch (i % 3) {
          case 0:
            cur = b.slice(cur, {8}, prefix + "." + std::to_string(i));
            break;
          case 1:
            cur = b.reshape(cur, {8}, prefix + "." + std::to_string(i));
            break;
          default:
            cur = b.concat({cur}, {8}, prefix + "." + std::to_string(i));
            break;
        }
    }
}

NodeId
sdResBlock(GraphBuilder &b, NodeId x, std::int64_t out_channels,
           const std::string &prefix)
{
    const auto &in_shape = b.shapeOf(x);
    std::int64_t in_channels = in_shape.dim(1);

    auto h = b.groupNorm(x, prefix + ".gn1");
    h = b.activation(h, OpKind::SiLU, prefix + ".silu1");
    h = b.conv2d(h, out_channels, 3, 1, 1, prefix + ".conv1");
    // Timestep-embedding injection, lowered to a bias-style add.
    h = b.biasAdd(h, prefix + ".temb");
    h = b.groupNorm(h, prefix + ".gn2");
    h = b.activation(h, OpKind::SiLU, prefix + ".silu2");
    h = b.conv2d(h, out_channels, 3, 1, 1, prefix + ".conv2");

    NodeId skip = x;
    if (in_channels != out_channels)
        skip = b.conv2d(x, out_channels, 1, 1, 0, prefix + ".skip", false);
    return b.add(skip, h, prefix + ".res");
}

} // namespace flashmem::models
