/**
 * @file
 * Timestamped memory accounting.
 *
 * Tracks live bytes per logical category (unified-memory weights,
 * texture-memory weights, activations, transform scratch) over simulated
 * time, producing the traces behind the paper's peak / average memory
 * numbers (Tables 1 and 8, Figure 6) and the OOM checks of Figure 10.
 */

#ifndef FLASHMEM_GPUSIM_MEMORY_HH
#define FLASHMEM_GPUSIM_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/stats.hh"
#include "common/types.hh"

namespace flashmem::gpusim {

/** Logical categories of live memory. */
enum class MemKind
{
    UnifiedWeights,   ///< weights staged in unified memory
    TextureWeights,   ///< weights resident in texture memory
    Activations,      ///< layer inputs/outputs
    Scratch,          ///< transform staging / redundant copies
    NumKinds,
};

/** Human name of a memory category. */
const char *memKindName(MemKind kind);

/**
 * Live-byte tracker with explicit timestamps.
 *
 * Events must be recorded in non-decreasing time order; runtimes process
 * layers in execution order so this holds by construction.
 */
class MemoryTracker
{
  public:
    /** @param budget_bytes app memory budget; 0 disables OOM detection. */
    explicit MemoryTracker(Bytes budget_bytes = 0)
        : budget_(budget_bytes)
    {}

    /**
     * Record an allocation of @p bytes at simulated time @p at.
     * Timestamps are clamped to be non-decreasing (runtimes process
     * layers in order, so clamping only smooths sub-layer reordering).
     */
    void alloc(MemKind kind, Bytes bytes, SimTime at);

    /** Record a release of @p bytes at simulated time @p at. */
    void free(MemKind kind, Bytes bytes, SimTime at);

    /** Largest total inside [start, end] (per-run peak queries). */
    Bytes peakOver(SimTime start, SimTime end) const;

    /** @name Live / aggregate queries. @{ */
    // FMLINT(allow:test-only-api) tests check every allocation is freed
    Bytes used() const { return total_; }
    // FMLINT(allow:test-only-api) tests check live bytes per memory kind
    Bytes used(MemKind kind) const;
    Bytes peak() const { return peak_; }
    Bytes peak(MemKind kind) const;
    /** @} */

    /** Total live bytes over time (the Figure-6 trace). */
    const TimeSeries &totalTrace() const { return total_trace_; }

    /** Time-weighted average of total live bytes over [start, end]. */
    double averageBytes(SimTime start, SimTime end) const;

    /** True once any allocation pushed the total above the budget. */
    // FMLINT(allow:test-only-api) tests observe the over-budget flag
    bool oomOccurred() const { return oom_; }
    Bytes budget() const { return budget_; }

  private:
    static constexpr std::size_t kNumKinds =
        static_cast<std::size_t>(MemKind::NumKinds);

    SimTime
    clamp(SimTime at)
    {
        last_time_ = std::max(last_time_, at);
        return last_time_;
    }

    Bytes budget_;
    SimTime last_time_ = 0;
    Bytes total_ = 0;
    Bytes peak_ = 0;
    bool oom_ = false;
    std::array<Bytes, kNumKinds> used_{};
    std::array<Bytes, kNumKinds> peak_per_kind_{};
    TimeSeries total_trace_;
};

} // namespace flashmem::gpusim

#endif // FLASHMEM_GPUSIM_MEMORY_HH
