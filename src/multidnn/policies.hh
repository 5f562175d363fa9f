/**
 * @file
 * Pluggable scheduling policies for the event-driven multi-DNN
 * scheduler (paper Figure 1c / Section 5.3).
 *
 * A policy answers one question — which ready request the device runs
 * next — and optionally opts into memory-aware admission, where the
 * scheduler caps the co-resident working-set budget and re-plans
 * models whose residual capacity share shifted (see
 * multidnn::EventScheduler).
 */

#ifndef FLASHMEM_MULTIDNN_POLICIES_HH
#define FLASHMEM_MULTIDNN_POLICIES_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "models/model_zoo.hh"

namespace flashmem::multidnn {

/** Scheduler view of one ready (arrived, not yet dispatched) request. */
struct ReadyRequest
{
    std::size_t queueIndex = 0;   ///< position in the submitted queue
    models::ModelId model{};
    SimTime arrival = 0;
    int priority = 0;
    /** The backend's full-budget service estimate for this model
     * (the SJF key and the deadline feasibility test). */
    SimTime estimatedLatency = 0;
    /** Latency SLO carried by the request (0 = unbounded). */
    SimTime latencyBound = 0;
    /** Sticky degrade mark: once admission degrades a request it is
     * dispatched at the policy's degraded budget. */
    bool degraded = false;
    /** @name Fault-recovery state (multidnn/faults.hh). @{ */
    /** Dispatches of this request killed by a fault so far. */
    int attempts = 0;
    /** Device the most recent killed dispatch ran on (-1 = none);
     * re-dispatches landing elsewhere count as failovers. */
    int lastFailedDevice = -1;
    /** @} */

    /** Absolute completion deadline (kTimeNever when unbounded). */
    SimTime deadline() const
    {
        return latencyBound > 0 ? arrival + latencyBound : kTimeNever;
    }
};

/** Admission verdict for one ready request at a dispatch point. */
enum class Admission
{
    Admit,   ///< eligible to run as-is
    Degrade, ///< run, but at the policy's degraded capacity budget
    Shed,    ///< drop: it cannot meet its SLO; do not dispatch
};

/** Strategy deciding which ready request runs on the freed device. */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Pick the next request to dispatch at simulated time @p now.
     * @param ready non-empty list of arrived requests.
     * @return index INTO @p ready (not a queue index).
     */
    virtual std::size_t select(
        SimTime now, const std::vector<ReadyRequest> &ready) const = 0;

    /**
     * True to enable memory-aware admission: the scheduler divides the
     * shared capacity budget across co-resident models and re-plans a
     * model before dispatch whenever its share shifted.
     */
    virtual bool memoryAware() const { return false; }

    /**
     * True when admit() can return anything but Admit; only then does
     * the loop pay the per-dispatch admission pass over the ready set.
     */
    virtual bool needsAdmission() const { return false; }

    /**
     * SLO admission, re-evaluated on every ready request at each
     * dispatch point (device just freed). Shed requests are removed
     * from the ready set and recorded in ScheduleOutcome::shed;
     * degraded requests stay ready but dispatch at degradedBudget().
     * The default admits everything.
     */
    virtual Admission admit(SimTime /*now*/,
                            const ReadyRequest & /*r*/) const
    {
        return Admission::Admit;
    }

    /**
     * Capacity budget for requests this policy degraded; the scheduler
     * quantizes and clamps it like any admission share. Identity for
     * policies that never degrade.
     */
    virtual Bytes degradedBudget(Bytes base_budget) const
    {
        return base_budget;
    }
};

/** Arrival order (queue-index tie-break) — the seed FIFO drain. */
class FifoPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "fifo"; }
    std::size_t select(SimTime now,
                       const std::vector<ReadyRequest> &ready)
        const override;
};

/** Shortest estimated execution first (arrival/index tie-break). */
class SjfPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "sjf"; }
    std::size_t select(SimTime now,
                       const std::vector<ReadyRequest> &ready)
        const override;
};

/**
 * Highest effective priority first, where waiting raises priority:
 * effective = priority + waited / agingQuantum. Aging makes the policy
 * starvation-free — any request eventually outranks fresh high-priority
 * arrivals.
 */
class PriorityAgingPolicy : public SchedulingPolicy
{
  public:
    explicit PriorityAgingPolicy(SimTime aging_quantum = milliseconds(50))
        : aging_quantum_(std::max<SimTime>(aging_quantum, 1))
    {}

    const char *name() const override { return "priority-aging"; }
    std::size_t select(SimTime now,
                       const std::vector<ReadyRequest> &ready)
        const override;

    /** Effective priority of @p r at time @p now. */
    std::int64_t effectivePriority(SimTime now,
                                   const ReadyRequest &r) const;

  private:
    SimTime aging_quantum_;
};

/**
 * FIFO selection plus memory-aware admission: the scheduler caps the
 * sum of co-resident working-set budgets at its capacity budget and
 * re-plans (via FlashMem::replan) any model whose share shrank or
 * grew since it was last planned.
 */
class MemoryAwarePolicy : public FifoPolicy
{
  public:
    const char *name() const override { return "memory-aware"; }
    bool memoryAware() const override { return true; }
};

/**
 * Deadline/SLO-aware admission (ROADMAP "deadline/SLO-aware admission"
 * item): earliest-deadline-first selection, and at every dispatch
 * point any ready request that can no longer meet its latency bound —
 * even if started immediately (now + estimate > deadline) — is shed
 * (Overload::Shed, the default) or degraded (Overload::Degrade): kept
 * alive but dispatched at a reduced capacity budget, freeing shared
 * memory for co-resident models at the cost of a late completion.
 * Unbounded requests are always admitted and order behind bounded
 * ones (deadline = never).
 */
class DeadlinePolicy : public SchedulingPolicy
{
  public:
    /** What to do with a request that cannot meet its deadline. */
    enum class Overload { Shed, Degrade };

    explicit DeadlinePolicy(Overload mode = Overload::Shed,
                            double degrade_budget_fraction = 0.5)
        : mode_(mode),
          degrade_fraction_(degrade_budget_fraction)
    {}

    const char *name() const override
    {
        return mode_ == Overload::Shed ? "deadline" : "deadline-degrade";
    }
    std::size_t select(SimTime now,
                       const std::vector<ReadyRequest> &ready)
        const override;
    bool needsAdmission() const override { return true; }
    Admission admit(SimTime now, const ReadyRequest &r) const override;
    Bytes degradedBudget(Bytes base_budget) const override;

    Overload mode() const { return mode_; }

  private:
    Overload mode_;
    double degrade_fraction_;
};

class DeviceCluster;

/**
 * Arrival-time admission gate, consulted by the cluster event loop
 * the instant a request (or a fault retry) would enter the ready set —
 * before it ever occupies a queue slot. Dispatch-point admission
 * (SchedulingPolicy::admit) only sheds a request once it is already
 * doomed; an arrival gate can project the backlog forward and refuse
 * work that will *become* doomed, so devices spend their time on
 * requests that can still meet their bounds.
 *
 * Implementations decide from (now, request, ready set, cluster state)
 * only — the loop's own state. Hand both execution paths the same gate
 * object to compare them.
 */
class ArrivalAdmission
{
  public:
    virtual ~ArrivalAdmission() = default;

    /**
     * Verdict for @p r entering the ready set at @p now (fresh arrival
     * or fault retry). @p ready is the current queued-but-unplaced
     * set; @p cluster exposes the per-device compute/DMA horizons the
     * backlog model projects from. A gate admits or sheds: Shed drops
     * the request with DropReason::ArrivalShed, and it never returns
     * Degrade (degrading is a dispatch-point policy verdict).
     */
    virtual Admission admitAtArrival(
        SimTime now, const ReadyRequest &r,
        const std::vector<ReadyRequest> &ready,
        const DeviceCluster &cluster) const = 0;
};

/** The built-in policy set, for iteration in benches/tests. */
enum class PolicyKind
{
    Fifo,
    ShortestJobFirst,
    PriorityAging,
    Deadline,
    MemoryAware,
};

/** Construct a policy of @p kind with default parameters. */
std::unique_ptr<SchedulingPolicy> makePolicy(PolicyKind kind);

/** All built-in kinds, in presentation order. */
const std::vector<PolicyKind> &allPolicyKinds();

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_POLICIES_HH
