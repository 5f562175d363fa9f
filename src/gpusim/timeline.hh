/**
 * @file
 * Resource timelines: the discrete-event core of the simulator.
 *
 * Mobile GPUs expose independent command queues for compute and DMA
 * (paper Section 2.1); each is modeled as a serialized Timeline whose
 * reservations advance a monotone "free at" horizon. Runtimes interleave
 * reservations across timelines to express overlap.
 */

#ifndef FLASHMEM_GPUSIM_TIMELINE_HH
#define FLASHMEM_GPUSIM_TIMELINE_HH

#include <string>

#include "common/types.hh"

namespace flashmem::gpusim {

/** Closed-open busy interval on a timeline. */
struct Interval
{
    SimTime start = 0;
    SimTime end = 0;

    SimTime duration() const { return end - start; }
};

/** A serialized resource (one command queue, the disk, ...). */
class Timeline
{
  public:
    explicit Timeline(std::string name) : name_(std::move(name)) {}

    /**
     * Reserve @p duration starting no earlier than @p earliest; the
     * reservation begins when the resource frees up.
     */
    Interval reserve(SimTime earliest, SimTime duration);

    /** First instant a new reservation could begin. */
    SimTime freeAt() const { return free_at_; }

    /** Total busy time accumulated (for utilization / power). */
    SimTime busyTime() const { return busy_time_; }

    /** Number of reservations made. */
    // FMLINT(allow:test-only-api) tests observe how often a queue was booked
    std::size_t reservations() const { return reservations_; }

    const std::string &name() const { return name_; }

    /** Reset to an idle state at time 0. */
    void reset();

  private:
    std::string name_;
    SimTime free_at_ = 0;
    SimTime busy_time_ = 0;
    std::size_t reservations_ = 0;
};

/** Timeline moving bytes at fixed bandwidth with per-op overhead. */
class BandwidthTimeline
{
  public:
    BandwidthTimeline(std::string name, Bandwidth bw,
                      SimTime per_op_overhead = 0)
        : timeline_(std::move(name)), bandwidth_(bw),
          per_op_overhead_(per_op_overhead)
    {}

    /**
     * Reserve a transfer of @p bytes starting at/after @p earliest.
     * The per-op overhead models request latency and is charged only
     * when the channel is idle at @p earliest; a backlogged channel
     * streams requests back-to-back (sequential continuation).
     */
    Interval transfer(SimTime earliest, Bytes bytes);

    SimTime freeAt() const { return timeline_.freeAt(); }
    SimTime busyTime() const { return timeline_.busyTime(); }
    Bytes bytesMoved() const { return bytes_moved_; }

    void reset();

  private:
    Timeline timeline_;
    Bandwidth bandwidth_;
    SimTime per_op_overhead_;
    Bytes bytes_moved_ = 0;
};

} // namespace flashmem::gpusim

#endif // FLASHMEM_GPUSIM_TIMELINE_HH
