/**
 * @file
 * Shared infrastructure for the table/figure reproduction harnesses:
 * the paper's published numbers (for side-by-side printing) and helpers
 * that run one (framework, model, device) cell.
 *
 * Reproduction policy: the substrate is a simulator, not the authors'
 * phones, so harnesses check *shape* — orderings, unsupported/OOM
 * patterns, and rough factors — and print paper vs measured side by
 * side. ROADMAP.md item 5 tabulates the paper-vs-measured magnitudes.
 */

#ifndef FLASHMEM_BENCH_HARNESS_HH
#define FLASHMEM_BENCH_HARNESS_HH

#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "baselines/naive_overlap.hh"
#include "baselines/preload_framework.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/flashmem.hh"
#include "metrics/report.hh"
#include "models/model_zoo.hh"

namespace flashmem::bench {

using baselines::FrameworkId;
using models::ModelId;

/** Paper Table 7 entries (milliseconds); negative = "-" unsupported. */
struct PaperLatency
{
    double init = -1;
    double exec = -1;
    bool
    supported() const
    {
        return init >= 0;
    }
    double
    integrated() const
    {
        return init + exec;
    }
};

/** Published Table 7 cell for (framework, model); unsupported = nullopt
 * semantics via PaperLatency::supported(). */
PaperLatency paperTable7(FrameworkId fw, ModelId m);

/** Published FlashMem integrated latency (Table 7 "Ours"), ms. */
double paperTable7Flash(ModelId m);

/** Published Table 8 average memory (MB); negative = unsupported. */
double paperTable8(FrameworkId fw, ModelId m);

/** Published FlashMem average memory (Table 8 "Ours"), MB. */
double paperTable8Flash(ModelId m);

/** Run one baseline cell; nullopt when the framework rejects the
 * model. OOM outcomes are returned with .oom set. */
std::optional<core::RunResult> runBaseline(
    FrameworkId fw, const graph::Graph &g,
    const gpusim::DeviceProfile &dev);

/** "123 ms" / "-" / "OOM" cell formatting. */
std::string cellMs(const std::optional<core::RunResult> &r, bool init);

/** Cache of built models so multi-table benches stay fast. */
const graph::Graph &cachedModel(ModelId id);

/** One Table-4 model: display name + cached graph. */
struct Table4Model
{
    std::string name;
    const graph::Graph *graph = nullptr;
};

/**
 * The Table-4 model set — GPT-Neo S/1.3B/2.7B plus the synthetic
 * ViT-8B, Llama2-13B, and Llama2-70B — built once and cached. Shared
 * by bench_table4_solver_runtime and the fig-7 phase-breakdown bench,
 * and the model set the parallel-planning determinism checks run on.
 */
const std::vector<Table4Model> &table4ModelSet();

/** Cache of FlashMem compilations per device name. */
const core::CompiledModel &cachedCompiled(const core::FlashMem &fm,
                                          ModelId id);

} // namespace flashmem::bench

#endif // FLASHMEM_BENCH_HARNESS_HH
