/**
 * @file
 * The weight-preloading execution strategy shared by every compared
 * framework: load the full model from disk into unified memory, run
 * per-tensor dedicated transform dispatches into texture layouts (with
 * staging copies), then execute kernel-by-kernel. Initialization and
 * execution are reported separately, matching paper Table 7's
 * Init/Exec columns.
 */

#ifndef FLASHMEM_BASELINES_PRELOAD_FRAMEWORK_HH
#define FLASHMEM_BASELINES_PRELOAD_FRAMEWORK_HH

#include <string>

#include "baselines/framework.hh"
#include "core/runtime.hh"
#include "gpusim/simulator.hh"

namespace flashmem::baselines {

/** Why a framework cannot run a model. */
enum class SupportStatus
{
    Supported,
    MissingOperator,  ///< e.g. NCNN LayerNorm on GPU
    ModelTooLarge,    ///< framework-level size limit
};

/** One preloading framework bound to a device profile. */
class PreloadFramework
{
  public:
    PreloadFramework(FrameworkId id, const gpusim::DeviceProfile &dev);

    /** Static support check (the "-" entries of Tables 7/8). */
    SupportStatus supports(const graph::Graph &g) const;

    /**
     * Cold-start run: full init + one inference. The result's initDone
     * marks the init/exec boundary; oom is set if the device budget was
     * exceeded (Figure 10 empty bars).
     */
    core::RunResult run(gpusim::GpuSimulator &sim, const graph::Graph &g,
                        SimTime arrival = 0) const;

    const std::string &name() const { return traits_.name; }

  private:
    /** Kernel latency under this framework's execution policy. */
    SimTime kernelLatency(const graph::Graph &g, graph::NodeId l) const;

    FrameworkTraits traits_;
    gpusim::DeviceProfile dev_;
    gpusim::KernelModel kernel_model_;
};

} // namespace flashmem::baselines

#endif // FLASHMEM_BASELINES_PRELOAD_FRAMEWORK_HH
