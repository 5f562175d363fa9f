#include "serving/slo.hh"

#include <algorithm>

#include "common/logging.hh"
#include "models/model_zoo.hh"
#include "multidnn/scheduler.hh"

namespace flashmem::serving {

ServiceTable
calibrateServices(const core::FlashMem &fm,
                  const std::vector<models::ModelId> &model_set,
                  double degrade_budget_fraction, Precision precision,
                  const multidnn::SchedulerConfig &cfg)
{
    FM_ASSERT(degrade_budget_fraction > 0.0 &&
                  degrade_budget_fraction <= 1.0,
              "degrade fraction must be in (0, 1]");
    const Bytes base_budget = fm.options().opg.mPeak;
    // Quantize and clamp through the scheduler's own rule under the
    // caller's SchedulerConfig, so the fast simulator's degraded
    // figures describe the budget the real scheduler re-plans at.
    Bytes degraded_budget = multidnn::quantizeBudgetShare(
        static_cast<Bytes>(static_cast<double>(base_budget) *
                           degrade_budget_fraction),
        cfg, fm.options().opg.chunkBytes, base_budget);

    ServiceTable table;
    for (auto id : model_set) {
        if (table.count(id))
            continue;
        auto g = models::buildModel(id, precision);
        auto compiled = fm.compile(g);
        gpusim::GpuSimulator scratch(fm.device());
        auto full = fm.execute(scratch, compiled, 0);

        auto degraded_cm = fm.replan(compiled, degraded_budget);
        gpusim::GpuSimulator scratch2(fm.device());
        auto degraded = fm.execute(scratch2, degraded_cm, 0);

        ModelServiceProfile profile;
        profile.service = full.integratedLatency();
        profile.peakBytes = full.peakMemory;
        profile.planBudget = compiled.planBudget;
        profile.degradedService = degraded.integratedLatency();
        profile.degradedPeakBytes = degraded.peakMemory;
        profile.degradedPlanBudget = degraded_cm.planBudget;
        // Init/exec split for the cross-request overlap model: the
        // same initLatency() the EventScheduler's measured profiles
        // report, so both paths place overlapped runs identically.
        profile.initService = full.initLatency();
        profile.degradedInitService = degraded.initLatency();
        table.emplace(id, profile);
    }
    return table;
}

SimTime
meanService(const ServiceTable &table,
            const std::vector<std::pair<models::ModelId, double>>
                &weights)
{
    double total_weight = 0.0;
    double weighted = 0.0;
    for (const auto &[id, w] : weights) {
        auto it = table.find(id);
        FM_ASSERT(it != table.end(),
                  "meanService: model missing from service table");
        FM_ASSERT(w > 0.0, "meanService: weights must be positive");
        weighted += w * static_cast<double>(it->second.service);
        total_weight += w;
    }
    if (total_weight == 0.0)
        return 0;
    return static_cast<SimTime>(weighted / total_weight);
}

} // namespace flashmem::serving
