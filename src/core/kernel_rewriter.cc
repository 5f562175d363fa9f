#include "core/kernel_rewriter.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace flashmem::core {

namespace {

const std::string kPlainTemplate = R"(// {{name}}: plain kernel (no inline loading)
__kernel void {{name}}(__read_only image2d_t tensor_a,
                       __read_only image2d_t tensor_b,
                       __write_only image2d_t tensor_c)
{
    const int tid = get_global_id(0);
    // load data for computation
    float4 acc = load_tiles(tensor_a, tensor_b, tid);
    for (int i = 0; i < {{k_tiles}}; ++i) {
        // do the computation
        acc = compute_tensor_c(acc, i);
    }
    write_imagef(tensor_c, out_coord(tid), acc);
}
)";

const std::string kBranchyTemplate = R"(// {{name}}: naive overlap (thread-id conditionals cause divergence)
__kernel void {{name}}(__read_only image2d_t tensor_a,
                       __read_only image2d_t tensor_b,
                       __write_only image2d_t tensor_c,
                       __global const half *weight_list)
{
    const int ws = {{load_tiles}};           // tiles of tensor list L
    const int tid = get_global_id(0);
    float4 acc = load_tiles(tensor_a, tensor_b, tid);
    if (tid < {{comp_size}}) {
        for (int i = 0; i < {{k_tiles}}; ++i)
            acc = compute_tensor_c(acc, i);
        if (tid < ws)
            pipeline_load(weight_list, tid); // divergent path
    } else {
        if (tid < ws)
            pipeline_load(weight_list, tid);
    }
    write_imagef(tensor_c, out_coord(tid), acc);
}
)";

const std::string kPipelinedTemplate = R"(// {{name}}: branch-free pipelined compute + weight loading
__kernel void {{name}}(__read_only image2d_t tensor_a,
                       __read_only image2d_t tensor_b,
                       __write_only image2d_t tensor_c,
                       __global const half *weight_list,
                       __write_only image2d_t weight_texture)
{
    const int tid = get_global_id(0);
    // uniform load-compute schedule: every thread follows the same path
    const int c = {{load_tiles}} / get_global_size(0) + 1;
    float4 acc = load_tiles(tensor_a, tensor_b, tid);
    for (int i = 0; i < c; ++i) {
        acc = compute_tensor_c(acc, i);
        // prefetch next weight tile while computing the current one
        float4 v = vload4(i, weight_list + tid * 4 * c);
        write_imagef(weight_texture, wt_coord(tid, i), v);
    }
    for (int i = c; i < {{k_tiles}}; ++i) {
        // drain loop: leftover arithmetic after loads complete
        acc = compute_tensor_c(acc, i);
    }
    write_imagef(tensor_c, out_coord(tid), acc);
}
)";

} // namespace

const std::string &
KernelRewriter::templateText(KernelTemplate tmpl)
{
    switch (tmpl) {
      case KernelTemplate::Plain:
        return kPlainTemplate;
      case KernelTemplate::BranchyOverlap:
        return kBranchyTemplate;
      case KernelTemplate::PipelinedBranchFree:
        return kPipelinedTemplate;
    }
    FM_PANIC("unknown kernel template");
}

std::string
KernelRewriter::renderTemplate(
    const std::string &tmpl,
    const std::map<std::string, std::string> &vars)
{
    std::string out;
    out.reserve(tmpl.size());
    std::size_t pos = 0;
    while (pos < tmpl.size()) {
        auto open = tmpl.find("{{", pos);
        if (open == std::string::npos) {
            out.append(tmpl, pos, std::string::npos);
            break;
        }
        out.append(tmpl, pos, open - pos);
        auto close = tmpl.find("}}", open);
        FM_ASSERT(close != std::string::npos,
                  "unterminated placeholder in kernel template");
        std::string key = tmpl.substr(open + 2, close - open - 2);
        auto it = vars.find(key);
        FM_ASSERT(it != vars.end(), "unresolved template key '", key,
                  "'");
        out += it->second;
        pos = close + 2;
    }
    return out;
}

std::string
RewrittenKernel::source() const
{
    return KernelRewriter::renderTemplate(
        KernelRewriter::templateText(tmpl),
        {
            {"name", name},
            {"k_tiles", std::to_string(kTiles)},
            {"load_tiles", std::to_string(loadTiles)},
            {"comp_size", std::to_string(compSize)},
        });
}

KernelRewriter::KernelRewriter(const graph::Graph &g,
                               const OverlapPlan &plan, bool branch_free)
    : g_(g), branch_free_(branch_free)
{
    for (const auto &row : plan.movedBytes(g))
        inline_bytes_.push_back(
            std::accumulate(row.begin(), row.end(), Bytes{0}));
}

RewrittenKernel
KernelRewriter::rewrite(graph::NodeId layer) const
{
    RewrittenKernel rk;
    rk.layer = layer;
    rk.spec = gpusim::kernelSpecFor(g_, layer, true);
    rk.inlineLoadBytes = inline_bytes_[layer];

    if (rk.inlineLoadBytes == 0) {
        rk.tmpl = KernelTemplate::Plain;
        rk.spec.pipelined = false;
    } else if (branch_free_) {
        rk.tmpl = KernelTemplate::PipelinedBranchFree;
        rk.spec.pipelined = true;
    } else {
        rk.tmpl = KernelTemplate::BranchyOverlap;
        rk.spec.pipelined = false;
    }

    const auto &node = g_.node(layer);
    rk.name = node.name;
    rk.kTiles =
        std::max<std::int64_t>(node.output.shape.elements() / 4096, 1);
    rk.loadTiles = static_cast<std::int64_t>(rk.inlineLoadBytes / 64);
    rk.compSize = rk.spec.gwsX * rk.spec.gwsY;
    return rk;
}

std::vector<RewrittenKernel>
KernelRewriter::rewriteAll() const
{
    std::vector<RewrittenKernel> out;
    out.reserve(g_.layerCount());
    for (graph::NodeId l = 0;
         l < static_cast<graph::NodeId>(g_.layerCount()); ++l)
        out.push_back(rewrite(l));
    return out;
}

} // namespace flashmem::core
