/**
 * @file
 * Template-based kernel rewriting (paper Section 4.4, Figure 5).
 *
 * Every layer with inline-load assignments is instantiated from a
 * reusable template that embeds branch-free, pipelined weight loading
 * into the computation: each iteration prefetches the next weight tile
 * while computing the current one, with a drain loop for the leftover
 * arithmetic. A branchy variant (thread-id conditionals) exists for the
 * ablation study, and a plain template covers layers with no inline
 * loads. Templates render to OpenCL-style source via {{placeholder}}
 * substitution (the paper uses Jinja). A rewritten kernel keeps only
 * the values its placeholders take, and RewrittenKernel::source()
 * renders the text when asked: the runtime reads the spec, never the
 * text.
 */

#ifndef FLASHMEM_CORE_KERNEL_REWRITER_HH
#define FLASHMEM_CORE_KERNEL_REWRITER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/overlap_plan.hh"
#include "gpusim/kernel.hh"
#include "graph/graph.hh"

namespace flashmem::core {

/** Which template a dispatch instantiates. */
enum class KernelTemplate
{
    Plain,              ///< no inline loading (Figure 5a)
    BranchyOverlap,     ///< naive interleave with tid conditionals
    PipelinedBranchFree ///< FlashMem rewrite (Figure 5b)
};

/** One rewritten dispatch ready for the runtime. */
struct RewrittenKernel
{
    graph::NodeId layer = graph::kInvalidNode;
    KernelTemplate tmpl = KernelTemplate::Plain;
    gpusim::KernelSpec spec;
    Bytes inlineLoadBytes = 0;
    /** What source() fills the template's placeholders with. */
    std::string name;           ///< the layer's node name
    std::int64_t kTiles = 0;    ///< compute tiles
    std::int64_t loadTiles = 0; ///< weight tiles loaded inline
    std::int64_t compSize = 0;  ///< compute threads (global work size)

    /** The generated OpenCL-style kernel text, rendered on each call:
     * only a reader of the text pays for it. */
    std::string source() const;
};

/** Instantiates kernels for a graph + overlap plan. */
class KernelRewriter
{
  public:
    /**
     * @param branch_free emit the pipelined branch-free template; when
     *        false the ablation's branchy interleave is used instead.
     */
    KernelRewriter(const graph::Graph &g, const OverlapPlan &plan,
                   bool branch_free = true);

    /** Rewrite every layer of the graph. */
    std::vector<RewrittenKernel> rewriteAll() const;

    /** Rewrite one layer. */
    RewrittenKernel rewrite(graph::NodeId layer) const;

    /**
     * Render @p tmpl with {{key}} placeholders substituted from
     * @p vars; fatal on unresolved placeholders.
     */
    static std::string renderTemplate(const std::string &tmpl,
                                      const std::map<std::string,
                                                     std::string> &vars);

    /** Raw template text for @p tmpl (exposed for docs and tests). */
    static const std::string &templateText(KernelTemplate tmpl);

  private:
    const graph::Graph &g_;
    bool branch_free_;
    /** Bytes each layer moves inline: the sums of the
     * OverlapPlan::movedBytes rows. */
    std::vector<Bytes> inline_bytes_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_KERNEL_REWRITER_HH
