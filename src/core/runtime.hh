/**
 * @file
 * The FlashMem streaming runtime (paper Section 4, "Online Execution").
 *
 * Like the overlap plan it follows, an execution's schedule is fixed
 * offline; only the clock is left for the device. So a StreamingRuntime
 * is built once per (graph, plan): the build validates the plan and
 * lays out, in flat per-layer arrays, everything an execution does that
 * does not depend on time — the disk reads each layer issues (preload
 * portions, which become texture-resident through the DMA transform
 * queue, and streamed portions), the preloaded weights each kernel
 * waits on, each inline assignment's bytes and the fraction of its
 * weight's stream it needs on unified memory, each kernel's spec and
 * inline bytes, and every texture, activation and final free.
 *
 * run() replays that program on a GpuSimulator: it reserves the disk,
 * transform and compute timelines and records the unified/texture
 * weight and activation allocations against the simulated clock,
 * producing the traces behind Tables 1/8 and Figure 6. Kernel
 * durations come from the simulator's kernel model, so one program runs
 * on any device profile.
 */

#ifndef FLASHMEM_CORE_RUNTIME_HH
#define FLASHMEM_CORE_RUNTIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/overlap_plan.hh"
#include "gpusim/simulator.hh"

namespace flashmem::core {

/** Per-invocation knobs. */
struct RunConfig
{
    /** Execution start time (multi-DNN schedulers pass the dispatch
     * time, i.e. max(request arrival, device free)). */
    SimTime arrival = 0;
    /** Branch-free pipelined kernels; false = ablation's branchy mode. */
    bool branchFreeKernels = true;
};

/** Outcome of one model execution. */
struct RunResult
{
    std::string model;
    /** Request arrival (queue-entry time). Defaults to @c start for
     * standalone runs; multi-DNN schedulers overwrite it with the true
     * arrival so request latency includes queueing delay. */
    SimTime arrival = 0;
    SimTime start = 0;     ///< execution start (dispatch)
    SimTime initDone = 0;  ///< preload set resident (init boundary)
    SimTime end = 0;       ///< last kernel retired

    /** Device-side latency: execution only, excludes queueing. */
    SimTime integratedLatency() const { return end - start; }
    /** Request latency as the user observes it: end - arrival. */
    SimTime requestLatency() const { return end - arrival; }
    /** Time spent queued behind other requests. */
    SimTime queueDelay() const { return start - arrival; }

    /** Latency bound (SLO) the request carried; 0 = unbounded. Set by
     * deadline-aware schedulers, 0 for standalone runs. */
    SimTime latencyBound = 0;
    /** Cluster device the run was placed on (multi-DNN schedulers;
     * 0 for standalone runs). */
    int device = 0;
    /** True when admission dispatched this run at a degraded (reduced)
     * capacity budget instead of shedding it. */
    bool degraded = false;
    /** SLO verdict: unbounded requests always count as met. */
    bool metSlo() const
    {
        return latencyBound <= 0 || requestLatency() <= latencyBound;
    }
    SimTime initLatency() const { return initDone - start; }
    SimTime execLatency() const { return end - initDone; }

    /** Compute stalls waiting for streamed data. */
    SimTime stallTime = 0;
    /** Largest live memory during this run. */
    Bytes peakMemory = 0;
    /** Time-weighted average live memory during this run. */
    double avgMemoryBytes = 0.0;
    /** True if this run pushed past the device app-memory budget. */
    bool oom = false;
    /** Kernels dispatched. */
    std::size_t kernels = 0;
};

/** A model's stream program: built once, replayed by every run. */
class StreamingRuntime
{
  public:
    /** The program of a graph with no layers. */
    StreamingRuntime() = default;

    /**
     * Build the program of @p g under @p plan (validated here; fatal
     * when invalid). Keeps no reference to either.
     */
    StreamingRuntime(const graph::Graph &g, const OverlapPlan &plan);

    /** Execute once on @p sim, whose timelines and memory persist
     * across calls (multi-DNN pipelines share one simulator). */
    RunResult run(gpusim::GpuSimulator &sim,
                  const RunConfig &cfg = {}) const;

  private:
    /** How many layers ahead of the consumer preload reads issue. */
    static constexpr graph::NodeId kPreloadLeadLayers = 64;

    /** One disk read a layer issues as it starts. */
    struct DiskIssue
    {
        Bytes bytes = 0;
        /** Preload: index of the weight's texture-ready time; stream:
         * index of the weight's disk interval. */
        std::uint32_t slot = 0;
        bool preload = false;
    };

    /** One inline assignment x_{w,l}. */
    struct InlineMove
    {
        /** Share of the weight's streamed read that must be on unified
         * memory before the kernel starts. */
        double frac = 0.0;
        /** Bytes the kernel moves from unified into texture memory. */
        Bytes bytes = 0;
        std::uint32_t stream = 0; ///< disk-interval index
    };

    /** One kernel, plus where its entries end in the flat arrays (each
     * range starts where the previous layer's ends). */
    struct Layer
    {
        gpusim::KernelSpec spec;
        Bytes inlineBytes = 0;
        Bytes activationBytes = 0; ///< output, allocated at kernel start
        std::uint32_t issuesEnd = 0;
        std::uint32_t waitsEnd = 0;
        std::uint32_t movesEnd = 0;
        std::uint32_t textureFreesEnd = 0;
        std::uint32_t activationFreesEnd = 0;
    };

    std::string model_;
    /** Framework residency held for the whole run. */
    Bytes base_overhead_ = 0;
    std::uint32_t preload_slots_ = 0;
    std::uint32_t stream_slots_ = 0;
    std::vector<Layer> layers_;
    std::vector<DiskIssue> issues_;
    /** Texture-ready indices of the preloaded weights each kernel
     * consumes. */
    std::vector<std::uint32_t> waits_;
    std::vector<InlineMove> moves_;
    /** Weights retired after their consuming kernel. */
    std::vector<Bytes> texture_frees_;
    /** Inputs whose last consumer is the kernel. */
    std::vector<Bytes> activation_frees_;
    /** Outputs nothing consumes, freed when the run ends. */
    std::vector<Bytes> final_frees_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_RUNTIME_HH
