/**
 * @file
 * High-traffic serving bench: drives the serving harness
 * (src/serving/) with a million-request Poisson trace per scheduling
 * policy over a mixed model zoo, reporting streaming tail latencies
 * (P² p50/p95/p99), goodput vs. shed rate, and — via the capacity
 * sweep — the maximum sustainable QPS per policy (the knee where the
 * SLO blows). Per-model service times are calibrated from real
 * FlashMem compiles/replans/executions, so the request-level simulator
 * inherits the planner's behaviour; headline runs execute concurrently
 * on the shared thread pool.
 *
 * With a JSON-path argument the per-policy numbers are written for
 * BENCH_table4.json's `serving` section (tools/run_benchmarks.sh),
 * regression-gated by tools/check_bench_regression.py.
 *
 * `--determinism`: run the headline 1M-request trace and a capacity
 * sweep under (planner threads, pool threads) = (1,1) and (4,4) on
 * separate FlashMems and fail unless every policy's p50/p95/p99, shed
 * and degraded counts, goodput, makespan, and max sustainable QPS are
 * bit-identical — the ctest-registered serving determinism check.
 *
 * The sharding study (`serving_sharding` JSON section) sweeps the
 * DeviceCluster over 1/2/4/8 devices with cross-request init/exec
 * overlap off and on: max sustainable QPS and p95 at a fixed 70%
 * per-device utilization, plus the single-device overlap demo — a
 * back-to-back LLM trace whose makespan shrinks when each request's
 * streamed preload overlaps the previous request's compute.
 * `--sharding-determinism` repeats the study at (1,1) vs (4,4)
 * planner/pool threads and fails on any bit difference.
 *
 * The admission study (`serving_admission` JSON section) compares
 * dispatch-point-only admission against the arrival-time backlog gate
 * (serving/admission.hh) at 2x overload on the 4-device overlap
 * cluster, then repeats under a cold-model influx (25% of arrivals
 * from models calibration never saw) with the gate on a
 * fully-calibrated oracle estimator vs the deployed warm-only view
 * whose cold estimates ride the GBT predicted tier.
 *
 * `--trace PATH` exports a Chrome/Perfetto trace (ui.perfetto.dev) of
 * a representative faulty overload run with the arrival gate engaged,
 * plus its text export next to it (same stem, `.trace`) for
 * tools/trace_diff.py.
 * Tracing cost is perfbench's obs.trace_on_ratio; that a traced run's
 * outcome equals the untraced one is a ctest case (test_obs.cc).
 *
 * Every number the JSON holds is simulated or counted, so a fresh run
 * reproduces the committed sections byte for byte on any host.
 */

#include "bench/harness.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

namespace {

using namespace flashmem;
using namespace flashmem::bench;

constexpr std::size_t kHeadlineRequests = 1000000;
constexpr std::uint64_t kTraceSeed = 2026;
constexpr double kSloSlack = 4.0;      // bound = slack x full service
constexpr double kHeadlineUtil = 0.7;  // offered load vs capacity

/** The serving policy set under comparison. */
std::vector<std::unique_ptr<multidnn::SchedulingPolicy>>
servingPolicies()
{
    std::vector<std::unique_ptr<multidnn::SchedulingPolicy>> out;
    out.push_back(std::make_unique<multidnn::FifoPolicy>());
    out.push_back(std::make_unique<multidnn::SjfPolicy>());
    out.push_back(std::make_unique<multidnn::DeadlinePolicy>(
        multidnn::DeadlinePolicy::Overload::Shed));
    out.push_back(std::make_unique<multidnn::DeadlinePolicy>(
        multidnn::DeadlinePolicy::Overload::Degrade));
    return out;
}

/** Everything one serving-bench arm needs, calibrated once. */
struct Arm
{
    serving::ServiceTable services;
    serving::ModelMix mix;
    double headlineQps = 0.0;
    double capacityQps = 0.0;
    SimTime p99Bound = 0;
};

/** Calibrate the model mix on a fresh FlashMem at @p planner_threads
 * and derive the offered-load operating points from it. */
Arm
calibrateArm(int planner_threads)
{
    auto dev = gpusim::DeviceProfile::onePlus12();
    core::FlashMemOptions opt;
    opt.opg.parallel.threads = planner_threads;
    core::FlashMem fm(dev, opt);

    Arm arm;
    arm.mix.entries = {
        {ModelId::ResNet50, 0.45, 0, 0},
        {ModelId::DepthAnythingS, 0.25, 0, 0},
        {ModelId::ViT, 0.20, 0, 0},
        {ModelId::GPTNeoS, 0.10, 0, 0},
    };
    arm.services = serving::calibrateServices(
        fm, arm.mix.distinctModels(), /*degrade_budget_fraction=*/0.5);

    // Per-model latency SLO: a fixed slack over the calibrated
    // full-budget service time; the sweep's p99 bound is the loosest
    // per-model bound.
    std::vector<std::pair<models::ModelId, double>> weights;
    SimTime max_service = 0;
    for (auto &e : arm.mix.entries) {
        const auto &profile = arm.services.at(e.model);
        e.latencyBound = static_cast<SimTime>(
            kSloSlack * static_cast<double>(profile.service));
        max_service = std::max(max_service, profile.service);
        weights.emplace_back(e.model, e.weight);
    }
    SimTime mean_service = serving::meanService(arm.services, weights);
    arm.capacityQps = 1.0 / toSeconds(mean_service);
    arm.headlineQps = kHeadlineUtil * arm.capacityQps;
    arm.p99Bound =
        static_cast<SimTime>(kSloSlack *
                             static_cast<double>(max_service));
    return arm;
}

serving::SweepParams
sweepParams(const Arm &arm, std::size_t requests_per_probe)
{
    serving::SweepParams sp;
    sp.loQps = std::max(1.0, 0.05 * arm.capacityQps);
    sp.hiQps = 8.0 * arm.capacityQps;
    sp.requestsPerProbe = requests_per_probe;
    sp.seed = kTraceSeed;
    sp.slo.p99Bound = arm.p99Bound;
    sp.slo.minGoodput = 0.95;
    return sp;
}

/** Headline + sweep results for every policy of one arm. */
struct PolicyFigures
{
    std::string policy;
    serving::ServingOutcome headline;
    serving::SweepResult sweep;
};

std::vector<PolicyFigures>
runArm(const Arm &arm, ThreadPool &pool,
       std::size_t headline_requests, std::size_t sweep_requests)
{
    auto policies = servingPolicies();
    auto trace = serving::poissonTrace(
        arm.mix, arm.headlineQps, headline_requests, kTraceSeed);

    // The 1M-request headline runs execute concurrently on the pool;
    // each run is a pure function of (trace, policy, services), so the
    // pool size cannot change the figures.
    std::vector<std::future<serving::ServingOutcome>> futures;
    for (const auto &p : policies) {
        const auto *policy = p.get();
        futures.push_back(pool.submit([&, policy] {
            return serving::simulateServing(trace, *policy,
                                            arm.services);
        }));
    }

    std::vector<PolicyFigures> out;
    for (std::size_t i = 0; i < policies.size(); ++i) {
        PolicyFigures f;
        f.policy = policies[i]->name();
        f.headline = futures[i].get();
        out.push_back(std::move(f));
    }
    // Sweeps run per policy, each parallelizing its bracketing ladder
    // on the pool (no nested submission).
    auto sp = sweepParams(arm, sweep_requests);
    for (std::size_t i = 0; i < policies.size(); ++i)
        out[i].sweep = serving::findMaxSustainableQps(
            arm.mix, *policies[i], arm.services, sp, &pool);
    return out;
}

// ----------------------------------------------------------- sharding

const std::vector<int> kShardDeviceCounts = {1, 2, 4, 8};
constexpr std::size_t kOverlapDemoRequests = 8;
/** Requests per sharding sweep probe and per headline point. */
constexpr std::size_t kShardingRequests = 200000;

/** One operating point of the sharding study: the capacity sweep and
 * a fixed-utilization headline run for tail latency / utilization. */
struct ShardingFigures
{
    struct Point
    {
        int devices = 1;
        bool overlap = false;
        double maxQps = 0.0;
        double headlineQps = 0.0;
        serving::ServingOutcome headline;
    };
    std::vector<Point> points;
    /** Back-to-back LLM trace, 1 device, overlap off vs on. */
    serving::ServingOutcome demoSerial;
    serving::ServingOutcome demoOverlap;
};

/** Mean of a per-device utilization field over the cluster. */
double
meanUtil(const serving::ServingOutcome &out, bool compute)
{
    if (out.devices.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &d : out.devices)
        total += compute ? d.computeUtilization : d.dmaUtilization;
    return total / static_cast<double>(out.devices.size());
}

ShardingFigures
runShardingStudy(const Arm &arm, ThreadPool &pool,
                 std::size_t sweep_requests,
                 std::size_t headline_requests)
{
    multidnn::FifoPolicy fifo;
    ShardingFigures f;
    auto sp = sweepParams(arm, sweep_requests);
    auto sharded = serving::sweepDeviceCounts(
        arm.mix, fifo, arm.services, sp, kShardDeviceCounts, &pool);

    for (const auto &pt : sharded) {
        ShardingFigures::Point p;
        p.devices = pt.devices;
        p.overlap = pt.overlap;
        p.maxQps = pt.sweep.maxSustainableQps;
        // Headline: 70% of the cluster's aggregate calibrated
        // capacity, so per-device utilization is constant across the
        // scaling curve and p95 isolates the sharding behaviour.
        p.headlineQps = kHeadlineUtil * arm.capacityQps * pt.devices;
        auto trace = serving::poissonTrace(
            arm.mix, p.headlineQps, headline_requests, kTraceSeed);
        serving::ServingSimParams simp;
        simp.cluster.deviceCount = pt.devices;
        simp.cluster.overlapInitWithExec = pt.overlap;
        p.headline =
            serving::simulateServing(trace, fifo, arm.services, simp);
        f.points.push_back(std::move(p));
    }

    // Cross-request overlap demo: back-to-back LLM requests on one
    // device. Serial, each request pays init + exec in sequence; with
    // overlap the next request's streamed preload runs on the DMA
    // queue while the current request computes.
    std::vector<multidnn::ModelRequest> llm(
        kOverlapDemoRequests, {ModelId::GPTNeoS, 0, 0, 0});
    serving::ServingSimParams serial_p;
    f.demoSerial =
        serving::simulateServing(llm, fifo, arm.services, serial_p);
    serving::ServingSimParams overlap_p;
    overlap_p.cluster.overlapInitWithExec = true;
    f.demoOverlap =
        serving::simulateServing(llm, fifo, arm.services, overlap_p);
    return f;
}

// ------------------------------------------------------- fault study

/** Requests per fault scenario (fast sim; seconds per scenario). */
constexpr std::size_t kFaultRequests = 200000;
constexpr int kFaultDevices = 4;

/** One fault scenario evaluated on the 4-device overlap cluster. */
struct FaultFigures
{
    std::string scenario;
    serving::ServingOutcome outcome;
    std::size_t submitted = 0;
    /** Down fraction of the faulted device (device 0). */
    double downFraction = 0.0;
    /** completed + shed == submitted: no request vanished. */
    bool accountingComplete = false;
};

/**
 * Fault-tolerance study: the same deadline-policy trace on a 4-device
 * overlap cluster, fault-free vs a mid-run crash (down for a quarter
 * of the run), a 4x thermal slowdown over half the run, and a
 * flapping device (five crash/rejoin cycles). Reports goodput / p99 /
 * retry / failover / shed figures per scenario, with the accounting
 * invariant that every submitted request completes or is shed with a
 * reason — never silently dropped.
 */
std::vector<FaultFigures>
runFaultStudy(const Arm &arm)
{
    const double qps =
        kHeadlineUtil * arm.capacityQps * kFaultDevices;
    const SimTime horizon = seconds(
        static_cast<double>(kFaultRequests) / qps);
    auto trace = serving::poissonTrace(arm.mix, qps, kFaultRequests,
                                       kTraceSeed);

    std::vector<std::pair<std::string, multidnn::FaultPlan>>
        scenarios;
    scenarios.emplace_back("fault_free", multidnn::FaultPlan{});
    scenarios.emplace_back(
        "crash_midrun",
        multidnn::crashAndRejoin(0, horizon / 2, horizon / 4));
    scenarios.emplace_back(
        "slowdown_4x",
        multidnn::singleSlowdown(0, horizon / 4, horizon / 2, 4.0));
    scenarios.emplace_back(
        "flapping",
        multidnn::flappingDevice(0, horizon / 4, horizon / 10,
                                 horizon / 20, 5));

    multidnn::DeadlinePolicy policy;
    std::vector<FaultFigures> out;
    for (auto &[name, plan] : scenarios) {
        serving::ServingSimParams params;
        params.readyLimit = 0; // drain everything; accounting must close
        params.cluster.deviceCount = kFaultDevices;
        params.cluster.overlapInitWithExec = true;
        params.faults = std::move(plan);
        FaultFigures f;
        f.scenario = name;
        f.outcome =
            serving::simulateServing(trace, policy, arm.services,
                                     params);
        f.submitted = trace.size();
        f.downFraction = f.outcome.devices.empty()
                             ? 0.0
                             : f.outcome.devices[0].downFraction;
        f.accountingComplete =
            f.outcome.stats.completed() +
                f.outcome.stats.shedCount() ==
            trace.size();
        out.push_back(std::move(f));
    }
    return out;
}

// --------------------------------------------------- admission study

/** Requests per admission scenario (fast sim). */
constexpr std::size_t kAdmissionRequests = 200000;
constexpr int kAdmissionDevices = 4;
/** Offered load vs the cluster's aggregate calibrated capacity. */
constexpr double kAdmissionOverload = 2.0;
/** Fraction of arrivals drawn from the cold (uncalibrated) models. */
constexpr double kAdmissionColdFraction = 0.25;
/** Bound on how much goodput the predicted-tier gate may give up vs
 * the fully-calibrated oracle gate under cold-model influx. */
constexpr double kColdGapBound = 0.15;

/** One admission scenario on the 4-device overlap cluster. */
struct AdmissionFigures
{
    std::string scenario;
    serving::ServingOutcome outcome;
    /** Gate decision counters (zero when ungated). */
    serving::AdmissionDecisions decisions;
    std::size_t submitted = 0;
    bool gated = false;
    /** completed + shed == submitted: no request vanished. */
    bool accountingComplete = false;
};

/** The admission study's scenarios plus the estimator's vitals. */
struct AdmissionStudy
{
    std::vector<AdmissionFigures> scenarios;
    /** Warm + cold calibrated (what execution always prices with). */
    serving::ServiceTable oracle;
    /** Uniform product-tier SLO bound stamped on every request. */
    SimTime sloBound = 0;
    /** Predicted-tier vitals of the warm-only serving view. */
    double viewInflation = 1.0;
    bool viewPredictorTrained = false;
    std::size_t warmCalibrated = 0;
};

/**
 * Arrival-time admission study: the same 2x-overload deadline-policy
 * traces on the 4-device overlap cluster, with and without the
 * arrival-time backlog gate (serving/admission.hh), then under a
 * cold-model influx (a quarter of arrivals from models calibration
 * never saw) with the gate running on a fully-calibrated oracle
 * estimator vs the deployed warm-only view whose cold estimates come
 * from the GBT predicted tier.
 *
 * The SLO is a single product-tier bound for every model (slack x the
 * slowest oracle service): per-model proportional bounds would hand
 * expensive models proportionally more slack, and under overload a
 * feasibility gate then shifts the served mix toward expensive
 * requests — the goodput comparison would measure the mix shift, not
 * the gate. A uniform bound makes deadline order arrival order, so
 * gated-vs-ungated is a pure timing comparison.
 */
AdmissionStudy
runAdmissionStudy(const Arm &arm, int planner_threads)
{
    // Oracle calibration of the cold models the warm table never saw
    // (same device profile and options as the warm arm, so the merged
    // table is what one calibration pass over all six models would
    // yield).
    auto dev = gpusim::DeviceProfile::onePlus12();
    core::FlashMemOptions opt;
    opt.opg.parallel.threads = planner_threads;
    core::FlashMem fm(dev, opt);
    const std::vector<models::ModelId> cold_models = {
        ModelId::DeepViT, ModelId::DepthAnythingL};
    auto cold_services = serving::calibrateServices(
        fm, cold_models, /*degrade_budget_fraction=*/0.5);

    AdmissionStudy study;
    study.oracle = arm.services;
    for (const auto &[model, profile] : cold_services)
        study.oracle.emplace(model, profile);

    SimTime slowest = 0;
    for (const auto &[model, profile] : study.oracle)
        slowest = std::max(slowest, profile.service);
    study.sloBound = static_cast<SimTime>(
        kSloSlack * static_cast<double>(slowest));

    serving::ModelMix warm = arm.mix;
    for (auto &e : warm.entries)
        e.latencyBound = study.sloBound;
    std::vector<serving::ModelMix::Entry> cold_entries;
    for (auto model : cold_models)
        cold_entries.push_back({model, 1.0, study.sloBound, 0});
    auto cold = serving::withColdInflux(warm, cold_entries,
                                        kAdmissionColdFraction);

    // Offered load: the overload factor times the cluster's aggregate
    // capacity against the mix actually offered (the cold mix is
    // heavier per request, so its QPS is recomputed, not reused).
    auto overloadQps = [&](const serving::ModelMix &mix) {
        std::vector<std::pair<models::ModelId, double>> weights;
        for (const auto &e : mix.entries)
            weights.emplace_back(e.model, e.weight);
        return kAdmissionOverload * kAdmissionDevices /
               toSeconds(serving::meanService(study.oracle, weights));
    };
    auto warm_trace = serving::poissonTrace(
        warm, overloadQps(warm), kAdmissionRequests, kTraceSeed);
    auto cold_trace = serving::poissonTrace(
        cold, overloadQps(cold), kAdmissionRequests, kTraceSeed);

    // Estimators: the oracle view calibrates everything; the serving
    // view knows only the warm table, so the cold models ride the
    // margin-inflated GBT predicted tier.
    serving::ServiceEstimator oracle_est(study.oracle);
    serving::ServiceEstimator view_est(arm.services);
    study.viewInflation = view_est.inflation();
    study.viewPredictorTrained = view_est.predictorTrained();
    study.warmCalibrated = view_est.calibratedCount();

    serving::AdmissionController warm_gate(view_est);
    serving::AdmissionController oracle_gate(oracle_est);
    serving::AdmissionController view_gate(view_est);

    multidnn::DeadlinePolicy policy;
    auto run = [&](const char *name,
                   const std::vector<multidnn::ModelRequest> &trace,
                   serving::AdmissionController *gate) {
        serving::ServingSimParams params;
        params.readyLimit = 0; // drain everything; accounting closes
        params.cluster.deviceCount = kAdmissionDevices;
        params.cluster.overlapInitWithExec = true;
        params.arrival = gate;
        if (gate)
            gate->resetDecisions();
        AdmissionFigures f;
        f.scenario = name;
        f.gated = gate != nullptr;
        // Execution always prices against the oracle table — the view
        // only changes what the gate believes, never what runs.
        f.outcome = serving::simulateServing(trace, policy,
                                             study.oracle, params);
        f.submitted = trace.size();
        if (gate)
            f.decisions = gate->decisions();
        f.accountingComplete = f.outcome.stats.completed() +
                                   f.outcome.stats.shedCount() ==
                               trace.size();
        study.scenarios.push_back(std::move(f));
    };
    run("overload_dispatch_only", warm_trace, nullptr);
    run("overload_arrival", warm_trace, &warm_gate);
    run("cold_influx_oracle", cold_trace, &oracle_gate);
    run("cold_influx_predicted", cold_trace, &view_gate);
    return study;
}

/** Print the admission study; returns the shape-check verdict and the
 * `serving_admission` JSON fragment (no trailing comma/newline). */
std::pair<bool, std::string>
reportAdmissionStudy(const AdmissionStudy &study)
{
    printHeading(std::cout,
                 "Arrival-time admission: overload + cold influx");
    std::cout << "uniform SLO bound " << formatMs(study.sloBound)
              << ", " << formatDouble(kAdmissionOverload, 1)
              << "x overload on " << kAdmissionDevices
              << " overlap devices; warm view: "
              << study.warmCalibrated
              << " calibrated models, predictor "
              << (study.viewPredictorTrained ? "trained" : "UNTRAINED")
              << ", inflation "
              << formatDouble(study.viewInflation, 2) << "x\n";

    Table t({"Scenario", "Gate", "Goodput", "p99", "Shed",
             "Arrival sheds", "Tier cal/pred/pess", "Accounted"});
    for (const auto &f : study.scenarios) {
        const auto &s = f.outcome.stats;
        const auto &d = f.decisions;
        t.addRow({f.scenario, f.gated ? "arrival" : "dispatch",
                  formatDouble(100.0 * s.goodputRate(), 2) + "%",
                  formatMs(s.p99()), std::to_string(s.shedCount()),
                  std::to_string(f.outcome.arrivalSheds),
                  std::to_string(d.tierCalibrated) + "/" +
                      std::to_string(d.tierPredicted) + "/" +
                      std::to_string(d.tierPessimistic),
                  f.accountingComplete ? "yes" : "NO"});
    }
    t.print(std::cout);

    auto row = [&](const char *name) -> const AdmissionFigures & {
        for (const auto &f : study.scenarios)
            if (f.scenario == name)
                return f;
        return study.scenarios.front();
    };
    const auto &ungated = row("overload_dispatch_only");
    const auto &gated = row("overload_arrival");
    const auto &oracle = row("cold_influx_oracle");
    const auto &predicted = row("cold_influx_predicted");
    double arrival_delta = gated.outcome.stats.goodputRate() -
                           ungated.outcome.stats.goodputRate();
    double cold_gap = oracle.outcome.stats.goodputRate() -
                      predicted.outcome.stats.goodputRate();

    // Acceptance shapes: the gate strictly beats dispatch-point-only
    // admission on goodput at 2x overload; under cold influx the
    // predicted-tier gate degrades gracefully (bounded goodput gap vs
    // the fully-calibrated oracle gate); every submitted request is
    // completed or shed with a reason; the gate decided every arrival
    // (fault-free: decisions == submissions); and each scenario's
    // estimate-tier mix is what its view implies.
    bool admission_ok = true;
    for (const auto &f : study.scenarios) {
        admission_ok &= f.accountingComplete;
        admission_ok &= !f.outcome.unstable;
        admission_ok &= f.gated
                            ? f.outcome.arrivalSheds > 0 &&
                                  f.decisions.total() == f.submitted
                            : f.outcome.arrivalSheds == 0;
    }
    admission_ok &= arrival_delta > 0.0;
    admission_ok &= cold_gap <= kColdGapBound;
    admission_ok &= study.viewPredictorTrained;
    admission_ok &= gated.decisions.tierPredicted == 0 &&
                    gated.decisions.tierPessimistic == 0;
    admission_ok &= oracle.decisions.tierPredicted == 0 &&
                    oracle.decisions.tierPessimistic == 0;
    admission_ok &= predicted.decisions.tierPredicted > 0 &&
                    predicted.decisions.tierCalibrated > 0;

    std::cout << "arrival-gate goodput delta at "
              << formatDouble(kAdmissionOverload, 1) << "x overload: "
              << formatDouble(100.0 * arrival_delta, 2)
              << " points\ncold-influx goodput gap (oracle - "
                 "predicted view): "
              << formatDouble(100.0 * cold_gap, 2) << " points\n"
              << "Admission shape check (gate beats dispatch-only, "
                 "bounded cold gap, every request accounted): "
              << (admission_ok ? "PASS" : "FAIL") << "\n";

    std::ostringstream ajson;
    ajson << "  \"serving_admission\": {\n    \"request_count\": "
          << kAdmissionRequests
          << ",\n    \"devices\": " << kAdmissionDevices
          << ",\n    \"overlap\": true,\n    \"policy\": "
             "\"deadline\",\n    \"overload_factor\": "
          << formatDouble(kAdmissionOverload, 1)
          << ",\n    \"cold_fraction\": "
          << formatDouble(kAdmissionColdFraction, 2)
          << ",\n    \"slo_bound_ms\": "
          << toMilliseconds(study.sloBound)
          << ",\n    \"warm_calibrated_models\": "
          << study.warmCalibrated
          << ",\n    \"predictor_trained\": "
          << (study.viewPredictorTrained ? "true" : "false")
          << ",\n    \"predicted_inflation\": "
          << formatDouble(study.viewInflation, 4)
          << ",\n    \"arrival_goodput_delta\": "
          << formatDouble(arrival_delta, 6)
          << ",\n    \"cold_goodput_gap\": "
          << formatDouble(cold_gap, 6) << ",\n    \"scenarios\": [\n";
    for (std::size_t i = 0; i < study.scenarios.size(); ++i) {
        const auto &f = study.scenarios[i];
        const auto &s = f.outcome.stats;
        const auto &d = f.decisions;
        ajson << "      {\"scenario\": \"" << f.scenario
              << "\", \"gated\": " << (f.gated ? "true" : "false")
              << ", \"goodput\": " << s.goodputRate()
              << ", \"p99_ms\": " << s.p99Ms()
              << ", \"completed\": " << s.completed()
              << ", \"shed\": " << s.shedCount()
              << ", \"arrival_sheds\": " << f.outcome.arrivalSheds
              << ", \"degraded\": " << s.degradedCount()
              << ", \"tier_calibrated\": " << d.tierCalibrated
              << ", \"tier_predicted\": " << d.tierPredicted
              << ", \"tier_pessimistic\": " << d.tierPessimistic
              << ", \"accounting_complete\": "
              << (f.accountingComplete ? "true" : "false") << "}"
              << (i + 1 < study.scenarios.size() ? "," : "") << "\n";
    }
    ajson << "    ]\n  }";
    return {admission_ok, ajson.str()};
}

// -------------------------------------------------- observability

/** Requests of the Perfetto trace export (kept small: the artifact is
 * meant to be opened in ui.perfetto.dev, not to stress the sim). */
constexpr std::size_t kTraceExportRequests = 5000;

/**
 * `--trace PATH`: one representative faulty overload run — 2x
 * overload on the 4-device overlap cluster, a mid-run crash plus a
 * thermal slowdown, deadline policy behind the arrival gate — traced
 * and exported as Chrome trace-event JSON for ui.perfetto.dev and as
 * the diffable text export.
 */
int
runTraceExport(const char *path)
{
    auto arm = calibrateArm(ThreadPool::defaultThreadCount());
    const double qps =
        kAdmissionOverload * arm.capacityQps * kFaultDevices;
    const SimTime horizon = seconds(
        static_cast<double>(kTraceExportRequests) / qps);
    auto trace = serving::poissonTrace(
        arm.mix, qps, kTraceExportRequests, kTraceSeed);
    auto plan = multidnn::crashAndRejoin(0, horizon / 2, horizon / 4);
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::singleSlowdown(1, horizon / 4, horizon / 2,
                                       4.0));

    serving::ServiceEstimator estimator(arm.services);
    serving::AdmissionController gate(estimator);
    multidnn::DeadlinePolicy policy;
    obs::TraceRecorder rec;
    serving::ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = kFaultDevices;
    params.cluster.overlapInitWithExec = true;
    params.faults = plan;
    params.arrival = &gate;
    params.trace = &rec;
    auto out =
        serving::simulateServing(trace, policy, arm.services, params);

    std::string text_path;
    bool ok = writeTraceExports(rec, path, &text_path);
    std::cout << "perfetto trace: " << kTraceExportRequests
              << " requests at " << formatDouble(qps, 1)
              << " QPS (2x overload, crash + slowdown), "
              << rec.size() << " events -> " << path << " (text: "
              << text_path << ")\n"
              << "  completed " << out.stats.completed() << ", shed "
              << out.stats.shedCount() << ", arrival sheds "
              << out.arrivalSheds << ", retries "
              << out.faults.retries << "\n";
    // The traced run actually exercised every track the export draws.
    ok &= out.stats.completed() > 0 && out.stats.shedCount() > 0 &&
          out.faults.crashes > 0 && out.faults.retries > 0;
    if (!ok)
        std::cerr << "trace export failed shape check or write\n";
    return ok ? 0 : 1;
}

/** Bit-exact equality of the determinism-relevant figures. */
bool
figuresIdentical(const PolicyFigures &a, const PolicyFigures &b)
{
    const auto &sa = a.headline.stats;
    const auto &sb = b.headline.stats;
    return a.policy == b.policy && sa.p50() == sb.p50() &&
           sa.p95() == sb.p95() && sa.p99() == sb.p99() &&
           sa.shedCount() == sb.shedCount() &&
           sa.degradedCount() == sb.degradedCount() &&
           sa.goodput() == sb.goodput() &&
           a.headline.makespan == b.headline.makespan &&
           a.sweep.maxSustainableQps == b.sweep.maxSustainableQps;
}

/** Bit-exact equality of two sharding studies. */
bool
shardingIdentical(const ShardingFigures &a, const ShardingFigures &b)
{
    if (a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const auto &pa = a.points[i];
        const auto &pb = b.points[i];
        const auto &sa = pa.headline.stats;
        const auto &sb = pb.headline.stats;
        if (pa.devices != pb.devices || pa.overlap != pb.overlap ||
            pa.maxQps != pb.maxQps ||
            pa.headline.makespan != pb.headline.makespan ||
            sa.p50() != sb.p50() || sa.p95() != sb.p95() ||
            sa.p99() != sb.p99() ||
            sa.goodput() != sb.goodput())
            return false;
    }
    return a.demoSerial.makespan == b.demoSerial.makespan &&
           a.demoOverlap.makespan == b.demoOverlap.makespan;
}

int
runShardingDeterminismCheck()
{
    auto run_study = [&](int threads) {
        auto arm = calibrateArm(threads);
        ThreadPool pool(threads);
        return runShardingStudy(arm, pool, /*sweep_requests=*/50000,
                                /*headline_requests=*/100000);
    };
    auto t1 = run_study(1);
    auto t4 = run_study(4);
    bool identical = shardingIdentical(t1, t4);
    std::cout << "serving sharding determinism (planner+pool threads "
                 "1 vs 4): "
              << (identical ? "identical" : "DIVERGED") << "\n";
    for (const auto &p : t1.points) {
        std::cout << "  " << p.devices << " device(s), overlap "
                  << (p.overlap ? "on " : "off") << ": max QPS "
                  << formatDouble(p.maxQps, 2) << ", p95 "
                  << formatMs(p.headline.stats.p95()) << "\n";
    }
    std::cout << "  overlap demo makespan: serial "
              << formatMs(t1.demoSerial.makespan) << " -> overlapped "
              << formatMs(t1.demoOverlap.makespan) << "\n";
    // The demo must actually exercise the overlap path.
    bool exercised =
        t1.demoOverlap.makespan < t1.demoSerial.makespan;
    std::cout << "cross-request overlap exercised: "
              << (exercised ? "yes" : "NO") << "\n";
    return identical && exercised ? 0 : 1;
}

int
runDeterminismCheck()
{
    auto run_arm = [&](int threads) {
        auto arm = calibrateArm(threads);
        ThreadPool pool(threads);
        return runArm(arm, pool, kHeadlineRequests,
                      /*sweep_requests=*/100000);
    };
    auto t1 = run_arm(1);
    auto t4 = run_arm(4);

    bool identical = t1.size() == t4.size();
    for (std::size_t i = 0; identical && i < t1.size(); ++i)
        identical = figuresIdentical(t1[i], t4[i]);
    bool exercised = false;
    for (const auto &f : t1) {
        exercised = exercised || f.headline.stats.shedCount() > 0 ||
                    f.headline.stats.degradedCount() > 0;
    }
    std::cout << "serving determinism (planner+pool threads 1 vs 4): "
              << (identical ? "identical" : "DIVERGED") << "\n";
    for (const auto &f : t1) {
        std::cout << "  " << f.policy << ": p99 "
                  << formatMs(f.headline.stats.p99()) << ", shed "
                  << f.headline.stats.shedCount() << ", degraded "
                  << f.headline.stats.degradedCount() << ", max QPS "
                  << formatDouble(f.sweep.maxSustainableQps, 2)
                  << "\n";
    }
    std::cout << "SLO admission exercised: "
              << (exercised ? "yes" : "NO") << "\n";
    return identical && exercised ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace flashmem;
    using namespace flashmem::bench;

    if (argc > 1 && std::strcmp(argv[1], "--determinism") == 0)
        return runDeterminismCheck();
    if (argc > 1 &&
        std::strcmp(argv[1], "--sharding-determinism") == 0)
        return runShardingDeterminismCheck();
    if (argc > 2 && std::strcmp(argv[1], "--trace") == 0)
        return runTraceExport(argv[2]);

    printHeading(std::cout,
                 "Serving harness: 1M-request capacity study");

    auto arm = calibrateArm(ThreadPool::defaultThreadCount());

    std::cout << "calibrated capacity "
              << formatDouble(arm.capacityQps, 1) << " QPS, headline "
              << formatDouble(arm.headlineQps, 1) << " QPS ("
              << formatDouble(100.0 * kHeadlineUtil, 0)
              << "% utilization), per-model SLO "
              << formatDouble(kSloSlack, 1) << "x service\n";
    Table ct({"Model", "Service", "Degraded svc", "Plan budget",
              "Degraded budget", "SLO bound"});
    for (const auto &e : arm.mix.entries) {
        const auto &p = arm.services.at(e.model);
        ct.addRow({models::modelSpec(e.model).abbr,
                   formatMs(p.service), formatMs(p.degradedService),
                   formatBytes(p.planBudget),
                   formatBytes(p.degradedPlanBudget),
                   formatMs(e.latencyBound)});
    }
    ct.print(std::cout);

    ThreadPool pool(ThreadPool::defaultThreadCount());
    auto figures = runArm(arm, pool, kHeadlineRequests,
                          /*sweep_requests=*/200000);

    printHeading(std::cout, "Per-policy serving figures");
    Table t({"Policy", "p50", "p95", "p99", "Mean queue", "Goodput",
             "Shed", "Degraded", "Max QPS"});
    std::vector<metrics::QuantileRow> qrows;
    bool ok = true;
    std::ostringstream json;
    json << "{\n  \"serving\": {\n    \"request_count\": "
         << kHeadlineRequests
         << ",\n    \"headline_qps\": "
         << formatDouble(arm.headlineQps, 3)
         << ",\n    \"slo_slack\": " << formatDouble(kSloSlack, 1)
         << ",\n    \"policies\": [\n";
    for (std::size_t i = 0; i < figures.size(); ++i) {
        const auto &f = figures[i];
        const auto &s = f.headline.stats;
        t.addRow({f.policy, formatMs(s.p50()), formatMs(s.p95()),
                  formatMs(s.p99()),
                  formatDouble(s.meanQueueDelayMs(), 2) + " ms",
                  formatDouble(100.0 * s.goodputRate(), 2) + "%",
                  std::to_string(s.shedCount()),
                  std::to_string(s.degradedCount()),
                  formatDouble(f.sweep.maxSustainableQps, 1)});
        qrows.push_back({f.policy, s.p50Ms(), s.p95Ms(), s.p99Ms()});
        json << "      {\"policy\": \"" << f.policy
             << "\", \"p50_ms\": " << s.p50Ms()
             << ", \"p95_ms\": " << s.p95Ms()
             << ", \"p99_ms\": " << s.p99Ms()
             << ", \"mean_queue_ms\": " << s.meanQueueDelayMs()
             << ", \"goodput\": " << s.goodputRate()
             << ", \"shed\": " << s.shedCount()
             << ", \"degraded\": " << s.degradedCount()
             << ", \"max_sustainable_qps\": "
             << f.sweep.maxSustainableQps << "}"
             << (i + 1 < figures.size() ? "," : "") << "\n";

        // Every submitted request is accounted for, the run stayed
        // stable at 70% utilization, and quantiles are ordered.
        ok &= !f.headline.unstable;
        ok &= s.submitted() == kHeadlineRequests;
        ok &= s.p50() <= s.p95() && s.p95() <= s.p99();
        ok &= f.sweep.maxSustainableQps > 0.0;
    }
    t.print(std::cout);
    json << "    ]\n  },\n"; // serving_faults section follows

    std::cout << "\nRequest-latency quantiles (shared axis):\n";
    metrics::renderQuantileChart(std::cout, qrows, 60);

    // Policy-shape checks: deadline shedding never completes a request
    // past its bound (admission is exact against calibrated service
    // times), and the degrade variant degrades instead of shedding.
    const auto &deadline = figures[2];
    const auto &degrade = figures[3];
    ok &= deadline.policy == "deadline";
    ok &= deadline.headline.stats.sloViolations() == 0;
    ok &= degrade.policy == "deadline-degrade";
    ok &= degrade.headline.stats.shedCount() == 0;
    // Shedding doomed requests stops wasting service time on already-
    // late work: the deadline policy sustains at least FIFO's load.
    ok &= deadline.sweep.maxSustainableQps >=
          figures[0].sweep.maxSustainableQps;

    std::cout << "\nShape check (stable at 70% load, ordered "
                 "quantiles, deadline admission meets bounds): "
              << (ok ? "PASS" : "FAIL") << "\n";

    // ------------------------------------------- sharding scaling study
    printHeading(std::cout,
                 "Device sharding: scaling curve + overlap demo");
    auto sharding = runShardingStudy(arm, pool, kShardingRequests,
                                     kShardingRequests);
    Table st({"Devices", "Overlap", "Max QPS", "Headline QPS", "p95",
              "Goodput", "Compute util", "DMA util"});
    for (const auto &p : sharding.points) {
        const auto &s = p.headline.stats;
        st.addRow({std::to_string(p.devices),
                   p.overlap ? "on" : "off",
                   formatDouble(p.maxQps, 2),
                   formatDouble(p.headlineQps, 1),
                   formatMs(s.p95()),
                   formatDouble(100.0 * s.goodputRate(), 2) + "%",
                   formatDouble(100.0 * meanUtil(p.headline, true),
                                1) +
                       "%",
                   formatDouble(100.0 * meanUtil(p.headline, false),
                                1) +
                       "%"});
    }
    st.print(std::cout);

    double demo_speedup =
        static_cast<double>(sharding.demoSerial.makespan) /
        static_cast<double>(
            std::max<SimTime>(sharding.demoOverlap.makespan, 1));
    std::cout << "back-to-back LLM overlap demo ("
              << kOverlapDemoRequests << "x GPTN-S, 1 device): "
              << formatMs(sharding.demoSerial.makespan) << " -> "
              << formatMs(sharding.demoOverlap.makespan) << " ("
              << formatDouble(demo_speedup, 3) << "x)\n";

    // Acceptance shapes: 4 devices with overlap sustain at least
    // 2.5x the single-device max; overlap alone improves the
    // back-to-back LLM makespan; scaling is monotone in devices.
    auto max_qps_at = [&](int devices, bool overlap) {
        for (const auto &p : sharding.points) {
            if (p.devices == devices && p.overlap == overlap)
                return p.maxQps;
        }
        return 0.0;
    };
    bool shard_ok = true;
    shard_ok &= max_qps_at(4, true) >= 2.5 * max_qps_at(1, true);
    shard_ok &= max_qps_at(4, true) >= 2.5 * max_qps_at(1, false);
    shard_ok &= sharding.demoOverlap.makespan <
                sharding.demoSerial.makespan;
    for (bool overlap : {false, true}) {
        double prev = 0.0;
        for (int n : kShardDeviceCounts) {
            double q = max_qps_at(n, overlap);
            shard_ok &= q >= prev;
            prev = q;
        }
    }
    for (const auto &p : sharding.points)
        shard_ok &= !p.headline.unstable;
    std::cout << "Sharding shape check (>= 2.5x at 4 devices, "
                 "overlap improves makespan, monotone scaling): "
              << (shard_ok ? "PASS" : "FAIL") << "\n";
    ok &= shard_ok;

    std::ostringstream sjson;
    sjson << "  \"serving_sharding\": {\n    \"policy\": \"fifo\",\n"
          << "    \"request_count\": " << kShardingRequests
          << ",\n    \"scaling\": [\n";
    for (std::size_t i = 0; i < sharding.points.size(); ++i) {
        const auto &p = sharding.points[i];
        const auto &s = p.headline.stats;
        sjson << "      {\"devices\": " << p.devices
              << ", \"overlap\": " << (p.overlap ? "true" : "false")
              << ", \"max_sustainable_qps\": " << p.maxQps
              << ", \"headline_qps\": "
              << formatDouble(p.headlineQps, 3)
              << ", \"p95_ms\": " << s.p95Ms()
              << ", \"goodput\": " << s.goodputRate()
              << ", \"mean_compute_util\": "
              << formatDouble(meanUtil(p.headline, true), 4)
              << ", \"mean_dma_util\": "
              << formatDouble(meanUtil(p.headline, false), 4) << "}"
              << (i + 1 < sharding.points.size() ? "," : "") << "\n";
    }
    sjson << "    ],\n    \"overlap_demo\": {\"model\": \"GPTN-S\", "
          << "\"requests\": " << kOverlapDemoRequests
          << ", \"serial_makespan_ms\": "
          << toMilliseconds(sharding.demoSerial.makespan)
          << ", \"overlap_makespan_ms\": "
          << toMilliseconds(sharding.demoOverlap.makespan)
          << ", \"makespan_speedup\": "
          << formatDouble(demo_speedup, 4) << "}\n  }\n";

    // ------------------------------------------------ fault study
    printHeading(std::cout,
                 "Fault tolerance: crash / slowdown / flapping");
    auto faults = runFaultStudy(arm);
    Table ft({"Scenario", "Goodput", "p99", "Shed", "Retries",
              "Failovers", "Fault sheds", "Starved", "Dev0 down",
              "Accounted"});
    for (const auto &f : faults) {
        const auto &s = f.outcome.stats;
        const auto &fc = f.outcome.faults;
        ft.addRow({f.scenario,
                   formatDouble(100.0 * s.goodputRate(), 2) + "%",
                   formatMs(s.p99()), std::to_string(s.shedCount()),
                   std::to_string(fc.retries),
                   std::to_string(fc.failovers),
                   std::to_string(fc.faultSheds),
                   std::to_string(fc.starved),
                   formatDouble(100.0 * f.downFraction, 1) + "%",
                   f.accountingComplete ? "yes" : "NO"});
    }
    ft.print(std::cout);

    // Acceptance shapes: a single mid-run crash (device down for a
    // quarter of the run) costs less than 35% goodput vs fault-free;
    // the flapping device actually flaps and still neither deadlocks
    // nor loses a request without a shed record; the fault-free run
    // trips no fault machinery at all.
    auto fault_row = [&](const char *name) -> const FaultFigures & {
        for (const auto &f : faults)
            if (f.scenario == name)
                return f;
        return faults.front();
    };
    const auto &ff = fault_row("fault_free");
    const auto &crash = fault_row("crash_midrun");
    const auto &flap = fault_row("flapping");
    bool fault_ok = true;
    for (const auto &f : faults) {
        fault_ok &= f.accountingComplete;
        fault_ok &= !f.outcome.unstable;
    }
    double crash_goodput_ratio =
        crash.outcome.stats.goodputRate() /
        std::max(ff.outcome.stats.goodputRate(), 1e-12);
    fault_ok &= crash_goodput_ratio >= 0.65;
    fault_ok &= crash.outcome.faults.crashes == 1;
    fault_ok &= flap.outcome.faults.crashes >= 2;
    fault_ok &= ff.outcome.faults.crashes == 0 &&
                ff.outcome.faults.retries == 0 &&
                ff.outcome.faults.timeouts == 0;
    std::cout << "crash_midrun goodput ratio vs fault_free: "
              << formatDouble(crash_goodput_ratio, 4) << "\n"
              << "Fault shape check (crash costs < 35% goodput, "
                 "every request accounted, flapping flaps): "
              << (fault_ok ? "PASS" : "FAIL") << "\n";
    ok &= fault_ok;

    std::ostringstream fjson;
    fjson << "  \"serving_faults\": {\n    \"request_count\": "
          << kFaultRequests << ",\n    \"devices\": " << kFaultDevices
          << ",\n    \"overlap\": true,\n    \"policy\": "
             "\"deadline\",\n    \"crash_goodput_ratio\": "
          << formatDouble(crash_goodput_ratio, 4)
          << ",\n    \"scenarios\": [\n";
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const auto &f = faults[i];
        const auto &s = f.outcome.stats;
        const auto &fc = f.outcome.faults;
        fjson << "      {\"scenario\": \"" << f.scenario
              << "\", \"goodput\": " << s.goodputRate()
              << ", \"p99_ms\": " << s.p99Ms()
              << ", \"shed\": " << s.shedCount()
              << ", \"crashes\": " << fc.crashes
              << ", \"timeouts\": " << fc.timeouts
              << ", \"dma_aborts\": " << fc.dmaAborts
              << ", \"retries\": " << fc.retries
              << ", \"failovers\": " << fc.failovers
              << ", \"fault_sheds\": " << fc.faultSheds
              << ", \"starved\": " << fc.starved
              << ", \"down_fraction_dev0\": "
              << formatDouble(f.downFraction, 4)
              << ", \"accounting_complete\": "
              << (f.accountingComplete ? "true" : "false") << "}"
              << (i + 1 < faults.size() ? "," : "") << "\n";
    }
    fjson << "    ]\n  },\n"; // serving_admission section follows

    // ------------------------------------------- admission study
    auto admission =
        runAdmissionStudy(arm, ThreadPool::defaultThreadCount());
    auto [admission_ok, ajson] = reportAdmissionStudy(admission);
    ok &= admission_ok;

    if (argc > 1) {
        std::ofstream out(argv[1]);
        out << json.str() << fjson.str() << ajson << ",\n"
            << sjson.str() << "}\n";
        if (out.good()) {
            std::cout << "wrote " << argv[1] << "\n";
        } else {
            std::cerr << "failed to write " << argv[1] << "\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
