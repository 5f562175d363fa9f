/**
 * @file
 * End-to-end benchmark of the compile -> plan -> stream -> serve
 * pipeline, driven only through the library's public entry points.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--report PATH] [--corrupt-accounting]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   zoo_compile      cold FlashMem::compile + executions of the 11
 *                    Table-6 models and three Table-4 synthetic graphs;
 *   multi_dnn_churn  live EventScheduler, memory-aware re-planning, over
 *                    a seeded Poisson stream of the Fig-6 five-model mix;
 *   serve_overload   simulateServing over a 1M-request seeded Poisson
 *                    trace at 1.5x the 4-device capacity, one crash.
 *
 * With --trace 0 the last stdout line is a JSON object carrying every
 * end-to-end metric; with --trace 1 it carries every per-layer metric,
 * derived from a traced run (benchmark-side spans around each layer
 * call, plus the library's obs::TraceRecorder where the layer takes
 * one). Any failed correctness check exits 1 without printing a
 * result. Human-readable progress, the host fingerprint and CPU times
 * go to stderr and, with --report, to a JSON report written at exit.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/flashmem.hh"
#include "core/fusion.hh"
#include "core/kernel_rewriter.hh"
#include "core/lc_opg.hh"
#include "models/model_zoo.hh"
#include "multidnn/faults.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/slo.hh"
#include "serving/sweep.hh"
#include "serving/trace_gen.hh"

namespace {

using namespace flashmem;
using models::ModelId;

constexpr int kPlannerThreads = 2;
/** Set-ups per run; setup_s is their median. zoo_compile's set-up
 * (graph builds only) takes milliseconds, so it repeats more often. */
constexpr int kSetupReps = 5;
constexpr int kZooSetupReps = 9;
/** Requests of the multi_dnn_churn Poisson stream. */
constexpr std::size_t kChurnRequests = 3000;
/** Offered load of multi_dnn_churn vs one device's capacity. */
constexpr double kChurnLoad = 0.5;
/** Requests of the serve_overload Poisson trace. */
constexpr std::size_t kServeRequests = 1000000;
constexpr int kServeDevices = 4;
/** Offered load of serve_overload vs the cluster's capacity. */
constexpr double kServeOverload = 1.5;
/** Executions of each compiled model per zoo_compile pass (drain_s). */
constexpr int kZooExecutions = 128;
/** Per-model latency bound as a multiple of its calibrated service. */
constexpr double kBoundSlack = 4.0;

// ------------------------------------------------------------ clocks

double
wallNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Process-wide CPU time, all threads (user + system). */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------- spans

/**
 * Benchmark-side spans (name, start, end, parent), kept in memory and
 * written with the report at exit. A layer's self time is its spans'
 * durations minus the parts their child spans cover.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    SpanRecorder() : origin_(wallNow()) {}

    int
    open(const char *name)
    {
        int id = static_cast<int>(spans_.size());
        spans_.push_back({name, wallNow() - origin_, 0.0,
                          stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = wallNow() - origin_;
        stack_.pop_back();
    }

    /** Summed self time of every span named @p name, among the spans
     * opened at or after index @p from. */
    double
    selfSeconds(const std::string &name, std::size_t from = 0) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const auto &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        double total = 0.0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                total += spans_[i].end - spans_[i].start - child[i];
        return total;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Null when tracing is off: every ScopedSpan is then a pointer test. */
SpanRecorder *gSpans = nullptr;

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : id_(gSpans ? gSpans->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0 && gSpans)
            gSpans->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

/** Wall and CPU seconds of one call. */
struct Timed
{
    double wall = 0.0;
    double cpu = 0.0;
};

template <typename Fn>
Timed
timed(Fn &&fn)
{
    double w0 = wallNow(), c0 = cpuNow();
    fn();
    return {wallNow() - w0, cpuNow() - c0};
}

// ------------------------------------------------------------ helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/*
 * Host-speed references. On a shared host the speed of this process
 * drifts by tens of percent over minutes, so host times are reported
 * relative to fixed reference computations timed right before each
 * repetition: unit ref_s is seconds at the reference speed of a quiet
 * 4-vCPU Xeon at 2.1 GHz, i.e. kNominal x median(raw / reference).
 * Planner work (two threads, branchy, cache-resident) is scaled by the
 * compute reference; streaming and event-loop work (one thread,
 * cache-missing) by the memory reference. Raw seconds go to the report.
 */

/** Fixed single-thread work: cache-missing reads/writes over 16 MiB. */
double
memoryReferenceSeconds()
{
    static std::vector<std::uint64_t> table(std::size_t{1} << 21, 1);
    std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
    double t0 = wallNow();
    for (int i = 0; i < (1 << 23); ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        auto &e = table[(x >> 33) & (table.size() - 1)];
        e += acc ^ x;
        acc += e >> 3;
    }
    double t = wallNow() - t0;
    table[0] += acc; // keeps the loop observable
    return t;
}

/** Fixed two-thread work: branchy integer updates of a 64 KiB table. */
double
computeReferenceSeconds()
{
    auto work = [](std::uint64_t x) {
        std::vector<std::uint32_t> v(std::size_t{1} << 14, 0);
        std::uint64_t acc = 0;
        for (int i = 0; i < (1 << 23); ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            auto k = static_cast<std::uint32_t>(x >> 40);
            auto &e = v[k & (v.size() - 1)];
            if (e < k)
                e = k;
            else
                e ^= k >> 3;
            acc += e & 7;
        }
        return acc;
    };
    double t0 = wallNow();
    std::uint64_t other = 0;
    std::thread t([&] { other = work(0x2545F4914F6CDD1Dull); });
    std::uint64_t mine = work(0x9E3779B97F4A7C15ull);
    t.join();
    double t_s = wallNow() - t0;
    static volatile std::uint64_t sink = 0;
    sink = mine + other; // keeps the loops observable
    return t_s;
}

/** Reference timings taken next to one repetition. */
struct Reference
{
    double memory = 1.0;
    double compute = 1.0;
};

/** Fastest of five timings of each reference. */
Reference
referenceNow()
{
    Reference r{1e9, 1e9};
    for (int i = 0; i < 5; ++i) {
        r.memory = std::min(r.memory, memoryReferenceSeconds());
        r.compute = std::min(r.compute, computeReferenceSeconds());
    }
    return r;
}

/** Reference times on the quiet host the bounds were set on. */
constexpr double kNominalMemoryS = 0.04;
constexpr double kNominalComputeS = 0.02;

/** ref_s of repetitions whose raw/memory-reference ratios are given. */
double
memoryRefSeconds(const std::vector<double> &ratios)
{
    return kNominalMemoryS * median(ratios);
}

/** ref_s of repetitions whose raw/compute-reference ratios are given. */
double
computeRefSeconds(const std::vector<double> &ratios)
{
    return kNominalComputeS * median(ratios);
}

/** Nearest-rank percentile (p in (0, 1]) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geoMean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Failed correctness checks; any entry suppresses the result line. */
std::vector<std::string> gFailures;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        gFailures.push_back(what);
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

/** Metrics in print order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : list_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        list_.push_back({name, value, unit});
    }
    const std::vector<Metric> &list() const { return list_; }

  private:
    std::vector<Metric> list_;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &list)
{
    std::string out = "{";
    for (std::size_t i = 0; i < list.size(); ++i) {
        out += (i ? ", " : "") + jsonString(list[i].name) +
               ": {\"value\": " + jsonNumber(list[i].value) +
               ", \"unit\": " + jsonString(list[i].unit) + "}";
    }
    return out + "}";
}

// ------------------------------------------------------- fingerprint

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::map<std::string, std::string>
fingerprint(std::uint64_t seed)
{
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
    return {
        {"cpu", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", __VERSION__},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"planner_threads", std::to_string(kPlannerThreads)},
        {"seed", std::to_string(seed)},
    };
}

// -------------------------------------------------------- model sets

gpusim::DeviceProfile
device()
{
    return gpusim::DeviceProfile::onePlus12();
}

/** A named model of a workload's set. */
struct ModelEntry
{
    std::string name;
    std::function<graph::Graph()> build;
};

ModelEntry
zooEntry(ModelId id)
{
    return {models::modelSpec(id).abbr,
            [id] { return models::buildModel(id); }};
}

ModelEntry
syntheticEntry(const std::string &name, models::SyntheticTransformerCfg cfg)
{
    return {name,
            [cfg] {
                return models::buildSyntheticTransformer(cfg,
                                                         Precision::FP16);
            }};
}

/** The 11 Table-6 models plus the three Table-4 synthetic graphs. */
std::vector<ModelEntry>
zooModelSet()
{
    std::vector<ModelEntry> out;
    for (const auto &spec : models::modelZoo())
        out.push_back(zooEntry(spec.id));

    models::SyntheticTransformerCfg vit8b;
    vit8b.name = "vit_8b";
    vit8b.blocks = 40;
    vit8b.dModel = 4096;
    vit8b.heads = 32;
    vit8b.vocab = 1000;

    models::SyntheticTransformerCfg llama13;
    llama13.name = "llama2_13b";
    llama13.blocks = 40;
    llama13.dModel = 5120;
    llama13.heads = 40;
    llama13.ffnHidden = 13824;
    llama13.llamaStyle = true;

    models::SyntheticTransformerCfg llama70;
    llama70.name = "llama2_70b";
    llama70.blocks = 80;
    llama70.dModel = 8192;
    llama70.heads = 64;
    llama70.ffnHidden = 28672;
    llama70.kvDim = 1024;
    llama70.llamaStyle = true;

    out.push_back(syntheticEntry("ViT-8B", vit8b));
    out.push_back(syntheticEntry("Llama2-13B", llama13));
    out.push_back(syntheticEntry("Llama2-70B", llama70));
    return out;
}

const std::vector<ModelId> kChurnModels = {
    ModelId::DepthAnythingS, ModelId::ViT, ModelId::SDUNet,
    ModelId::WhisperMedium, ModelId::GPTNeo1_3B};

/** The calibrated four-model serving mix (weights as bench_serving). */
const std::vector<std::pair<ModelId, double>> kServeMix = {
    {ModelId::ResNet50, 0.45},
    {ModelId::DepthAnythingS, 0.25},
    {ModelId::ViT, 0.20},
    {ModelId::GPTNeoS, 0.10}};

/** Default options with the planner pinned and a caller-owned memo. */
core::FlashMemOptions
defaultOptions(core::PlanMemo *memo)
{
    core::FlashMemOptions opt;
    opt.opg.parallel.threads = kPlannerThreads;
    opt.opg.memo = memo;
    return opt;
}

/** Fig-6 options: latency priority at a 1 GiB in-flight budget. */
core::FlashMemOptions
fig6Options(core::PlanMemo *memo)
{
    auto opt = defaultOptions(memo);
    opt.opg.mPeak = mib(1024);
    opt.opg.lambda = 0.5;
    return opt;
}

multidnn::SchedulerConfig
churnSchedulerConfig()
{
    multidnn::SchedulerConfig cfg;
    cfg.capacityBudget = gib(1.5);
    return cfg;
}

// ----------------------------------------------------- zoo_compile

struct ZooModelResult
{
    double latencyMs = 0.0;
    double peakMiB = 0.0;
    bool oom = false;
    int windows = 0;
    int optimalWindows = 0;
    std::string planText;
};

struct ZooPass
{
    double compileWall = 0.0, compileCpu = 0.0;
    double executeWall = 0.0;
    std::vector<ZooModelResult> models; // indexed like the model set
};

struct ZooSetup
{
    std::vector<ModelEntry> set;
    std::vector<graph::Graph> graphs;
};

ZooSetup
zooSetup()
{
    ZooSetup s;
    s.set = zooModelSet();
    for (const auto &m : s.set) {
        ScopedSpan span("models.build");
        s.graphs.push_back(m.build());
    }
    return s;
}

/** One cold compile + execute of every model, in @p order. */
ZooPass
zooPass(const ZooSetup &s, const std::vector<std::size_t> &order)
{
    ScopedSpan pass_span("zoo_compile.pass");
    auto dev = device();
    ZooPass p;
    p.models.resize(s.set.size());
    for (std::size_t idx : order) {
        core::PlanMemo memo;
        core::FlashMem fm(dev, defaultOptions(&memo));
        core::CompiledModel cm;
        Timed tc = timed([&] {
            ScopedSpan span("flashmem.compile");
            cm = fm.compile(s.graphs[idx]);
        });
        p.compileWall += tc.wall;
        p.compileCpu += tc.cpu;
        check(cm.plan.validate(cm.fusedGraph, false),
              s.set[idx].name + ": compiled plan fails validation");

        // Repeated executions on fresh simulators must agree exactly.
        core::RunResult r;
        Timed te = timed([&] {
            ScopedSpan span("runtime.execute");
            for (int k = 0; k < kZooExecutions; ++k) {
                gpusim::GpuSimulator sim(dev);
                auto rk = fm.execute(sim, cm);
                check(k == 0 || (rk.end == r.end &&
                                 rk.peakMemory == r.peakMemory),
                      s.set[idx].name + ": re-execution differs");
                r = rk;
            }
        });
        p.executeWall += te.wall;

        auto &out = p.models[idx];
        out.latencyMs = toMilliseconds(r.integratedLatency());
        out.peakMiB = toMiB(r.peakMemory);
        out.oom = r.oom;
        out.windows = cm.stats.windows;
        out.optimalWindows = cm.stats.optimalWindows;
        out.planText = cm.plan.serialize();
        check(!r.oom, s.set[idx].name + ": execution reported OOM");
    }
    return p;
}

/** Everything of a pass that must repeat exactly (sim-side). */
std::string
zooSignature(const ZooPass &p)
{
    std::ostringstream os;
    for (const auto &m : p.models)
        os << jsonNumber(m.latencyMs) << ' ' << jsonNumber(m.peakMiB)
           << ' ' << m.oom << ' ' << m.windows << ' '
           << m.optimalWindows << '\n'
           << m.planText;
    return os.str();
}

// ------------------------------------------ calibrated request workloads

/** Shared set-up of the two request workloads. */
struct RequestSetup
{
    serving::ServiceTable services;
    serving::ModelMix mix;
    std::vector<multidnn::ModelRequest> trace;
    double qps = 0.0;
    multidnn::FaultPlan faults;
    std::unique_ptr<serving::ServiceEstimator> estimator;
    std::unique_ptr<serving::AdmissionController> gate;
    double calibrateWall = 0.0;
    double tracegenWall = 0.0;
};

/** Calibrate @p mix on @p fm, stamp per-model bounds (kBoundSlack x
 * calibrated service), and derive the arrival gate from the table. */
void
calibrate(RequestSetup &s, const core::FlashMem &fm,
          const std::vector<std::pair<ModelId, double>> &mix,
          const multidnn::SchedulerConfig &cfg)
{
    s.mix.entries.clear();
    std::vector<ModelId> ids;
    for (const auto &[id, w] : mix) {
        s.mix.entries.push_back({id, w, 0, 0});
        ids.push_back(id);
    }
    s.calibrateWall = timed([&] {
                          ScopedSpan span("serving.calibrate");
                          s.services = serving::calibrateServices(
                              fm, ids, 0.5, Precision::FP16, cfg);
                      }).wall;
    for (auto &e : s.mix.entries)
        e.latencyBound = static_cast<SimTime>(
            kBoundSlack *
            static_cast<double>(s.services.at(e.model).service));
    s.estimator = std::make_unique<serving::ServiceEstimator>(s.services);
    s.gate = std::make_unique<serving::AdmissionController>(*s.estimator);
}

void
generateTrace(RequestSetup &s, std::size_t count, std::uint64_t seed)
{
    s.tracegenWall = timed([&] {
                         ScopedSpan span("serving.tracegen");
                         s.trace = serving::poissonTrace(s.mix, s.qps,
                                                         count, seed);
                     }).wall;
}

/** One device's calibrated capacity in requests/s over the mix. */
double
capacityQps(const RequestSetup &s)
{
    std::vector<std::pair<ModelId, double>> weights;
    for (const auto &e : s.mix.entries)
        weights.emplace_back(e.model, e.weight);
    return 1.0 / toSeconds(serving::meanService(s.services, weights));
}

double
serviceGeoMeanMs(const RequestSetup &s)
{
    std::vector<double> v;
    for (const auto &[id, p] : s.services)
        v.push_back(toMilliseconds(p.service));
    return geoMean(v);
}

std::string
servicesSignature(const RequestSetup &s)
{
    std::ostringstream os;
    for (const auto &[id, p] : s.services)
        os << static_cast<int>(id) << ' ' << p.service << ' '
           << p.degradedService << ' ' << p.peakBytes << ' '
           << p.degradedPeakBytes << ' ' << p.initService << ' '
           << p.degradedInitService << '\n';
    return os.str();
}

std::unique_ptr<RequestSetup>
churnSetup(std::uint64_t seed)
{
    auto s = std::make_unique<RequestSetup>();
    core::PlanMemo memo;
    core::FlashMem fm(device(), fig6Options(&memo));
    std::vector<std::pair<ModelId, double>> mix;
    for (auto id : kChurnModels)
        mix.emplace_back(id, 1.0);
    calibrate(*s, fm, mix, churnSchedulerConfig());
    s->qps = kChurnLoad * capacityQps(*s);
    generateTrace(*s, kChurnRequests, seed);
    return s;
}

std::unique_ptr<RequestSetup>
serveSetup(std::uint64_t seed)
{
    auto s = std::make_unique<RequestSetup>();
    core::PlanMemo memo;
    core::FlashMem fm(device(), defaultOptions(&memo));
    calibrate(*s, fm, kServeMix, {});
    s->qps = kServeOverload * kServeDevices * capacityQps(*s);
    generateTrace(*s, kServeRequests, seed);
    // One device (chosen by the seed) crashes a third into the trace
    // and rejoins a quarter of the horizon later.
    SimTime horizon = s->trace.back().arrival;
    s->faults = multidnn::crashAndRejoin(
        static_cast<int>(seed % kServeDevices), horizon / 3, horizon / 4);
    return s;
}

// -------------------------------------------------- multi_dnn_churn

struct ChurnRun
{
    multidnn::ScheduleOutcome out;
    Timed drain;
};

ChurnRun
churnRun(const RequestSetup &s, obs::TraceRecorder *rec)
{
    core::PlanMemo memo;
    core::FlashMem fm(device(), fig6Options(&memo));
    auto cfg = churnSchedulerConfig();
    cfg.arrivalAdmission = s.gate.get();
    cfg.trace = rec;
    multidnn::EventScheduler sched(fm, cfg);
    s.gate->resetDecisions();
    ChurnRun r;
    r.drain = timed([&] {
        ScopedSpan span("multidnn.drain");
        r.out = sched.run(s.trace, multidnn::MemoryAwarePolicy{});
    });
    return r;
}

std::vector<double>
completedLatenciesMs(const multidnn::ScheduleOutcome &o)
{
    std::vector<double> v;
    for (const auto &r : o.runs)
        v.push_back(toMilliseconds(r.requestLatency()));
    return v;
}

void
checkChurn(const RequestSetup &s, const multidnn::ScheduleOutcome &o,
           bool corrupt)
{
    std::size_t completed = o.runs.size() + (corrupt ? 1 : 0);
    check(completed + o.shed.size() == s.trace.size(),
          "multi_dnn_churn: completed + shed != submitted (" +
              std::to_string(completed) + " + " +
              std::to_string(o.shed.size()) +
              " != " + std::to_string(s.trace.size()) + ")");
    for (const auto &r : o.runs)
        if (r.oom) {
            check(false, "multi_dnn_churn: a run reported OOM");
            break;
        }
}

std::string
churnSignature(const multidnn::ScheduleOutcome &o)
{
    std::ostringstream os;
    os << o.makespan << ' ' << o.peakMemory << ' ' << o.replans << ' '
       << o.shed.size() << ' ' << o.degradedRuns << '\n';
    for (const auto &r : o.runs)
        os << r.model << ' ' << r.arrival << ' ' << r.start << ' '
           << r.initDone << ' ' << r.end << ' ' << r.peakMemory << ' '
           << r.stallTime << '\n';
    for (const auto &d : o.shed)
        os << d.queueIndex << ' ' << static_cast<int>(d.reason) << '\n';
    return os.str();
}

// --------------------------------------------------- serve_overload

struct ServeRun
{
    serving::ServingOutcome out;
    Timed drain;
};

ServeRun
serveRun(const RequestSetup &s, obs::TraceRecorder *rec)
{
    serving::ServingSimParams params;
    params.readyLimit = 0; // drain everything; accounting must close
    params.cluster.deviceCount = kServeDevices;
    params.cluster.overlapInitWithExec = true;
    params.faults = s.faults;
    params.arrival = s.gate.get();
    params.trace = rec;
    multidnn::DeadlinePolicy policy(multidnn::DeadlinePolicy::Overload::Shed);
    s.gate->resetDecisions();
    ServeRun r;
    r.drain = timed([&] {
        ScopedSpan span("serving.simulate");
        r.out = serving::simulateServing(s.trace, policy, s.services,
                                         params);
    });
    return r;
}

void
checkServe(const RequestSetup &s, const serving::ServingOutcome &o,
           bool corrupt)
{
    std::size_t completed = o.stats.completed() + (corrupt ? 1 : 0);
    check(completed + o.stats.shedCount() == s.trace.size() &&
              o.submitted == s.trace.size(),
          "serve_overload: completed + shed != submitted (" +
              std::to_string(completed) + " + " +
              std::to_string(o.stats.shedCount()) +
              " != " + std::to_string(s.trace.size()) + ")");
    check(!o.unstable, "serve_overload: run aborted as unstable");
}

std::string
serveSignature(const serving::ServingOutcome &o)
{
    std::ostringstream os;
    os << o.makespan << ' ' << o.peakMemory << ' ' << o.stats.completed()
       << ' ' << o.stats.shedCount() << ' ' << o.stats.goodput() << ' '
       << o.stats.degradedCount() << ' ' << o.stats.p50() << ' '
       << o.stats.p95() << ' ' << o.stats.p99() << ' ' << o.arrivalSheds
       << ' ' << o.faults.retries << ' ' << o.faults.failovers << ' '
       << o.faults.crashes << ' ' << o.faults.faultSheds << ' '
       << o.faults.starved << '\n';
    for (const auto &d : o.devices)
        os << d.dispatched << ' ' << d.planSwitches << ' '
           << d.computeBusyTime << ' ' << d.dmaBusyTime << '\n';
    return os.str();
}

// ------------------------------------------------------ layer probe

/** Per-layer totals of one probe pass over a workload's model set. */
struct Probe
{
    int fusionRounds = 0, groupsSplit = 0;
    double stageS = 0.0, cpBuildS = 0.0, solveS = 0.0, solveCpuS = 0.0,
           mergeS = 0.0;
    int windows = 0, optimalWindows = 0, greedyWindows = 0,
        softRelaxations = 0;
    std::uint64_t memoHits = 0, decisions = 0, propagations = 0,
                  conflicts = 0, restarts = 0;
    double streamedBytes = 0.0, weightBytes = 0.0;
    std::size_t fusedLayers = 0, rewrittenKernels = 0, kernels = 0;
    /** First span of the probe: its self times count from here. */
    std::size_t firstSpan = 0;
    double initMs = 0.0, execMs = 0.0, stallMs = 0.0, latencyMs = 0.0;
    double diskMiB = 0.0, transformMiB = 0.0;
    double diskBusyMs = 0.0, computeBusyMs = 0.0;
    double peakUnifiedMiB = 0.0, peakTextureMiB = 0.0,
           peakActivationMiB = 0.0;
    /** Direct replans (zoo_compile, serve_overload). */
    std::vector<double> replanMs;
    std::uint64_t replanMemoHits = 0;
    /** Host execute seconds of one inference, per fused-graph name
     * (the name RunResult::model carries). */
    std::map<std::string, double> executeSeconds;
    /** Shipped artifacts, per model name (for the replan replay). */
    std::map<std::string, core::CompiledModel> compiled;
};

/**
 * Call every layer directly once per model: build, fusion, a cold
 * compile, a direct LcOpgPlanner::plan on the shipped fused graph with
 * a fresh memo, a direct rewriteAll, and one execute on a fresh
 * simulator; with @p replan also a FlashMem::replan at half the budget.
 */
Probe
probeLayers(const std::vector<ModelEntry> &set,
            const std::function<core::FlashMemOptions(core::PlanMemo *)>
                &options,
            bool replan)
{
    Probe p;
    p.firstSpan = gSpans ? gSpans->spans().size() : 0;
    ScopedSpan probe_span("probe");
    auto dev = device();
    gpusim::KernelModel kernel_model(dev);
    for (const auto &m : set) {
        graph::Graph g;
        {
            ScopedSpan span("models.build");
            g = m.build();
        }
        core::PlanMemo memo;
        auto opt = options(&memo);
        core::FlashMem fm(dev, opt);
        {
            ScopedSpan span("fusion");
            core::FusionPass fusion(g, opt.fusion);
            p.fusedLayers +=
                fusion.materialize(fusion.initialPartition()).layerCount();
        }
        core::CompiledModel cm;
        {
            ScopedSpan span("flashmem.compile");
            cm = fm.compile(g);
        }
        check(cm.plan.validate(cm.fusedGraph, false),
              m.name + ": compiled plan fails validation");
        p.fusionRounds += cm.fusionRounds;
        p.groupsSplit += cm.groupsSplit;
        const auto &st = cm.stats;
        p.stageS += st.stageSeconds;
        p.cpBuildS += st.buildModelSeconds;
        p.solveS += st.solveSeconds;
        p.solveCpuS += st.solveCpuSeconds;
        p.mergeS += st.mergeSeconds;
        p.windows += st.windows;
        p.optimalWindows += st.optimalWindows;
        p.greedyWindows += st.greedyWindows;
        p.softRelaxations += st.softRelaxations;
        p.memoHits += st.memoHits;
        p.decisions += st.solverDecisions;
        p.propagations += st.solverPropagations;
        p.conflicts += st.solverConflicts;
        p.restarts += st.solverRestarts;
        double streamed =
            static_cast<double>(cm.plan.streamedBytes(cm.fusedGraph));
        p.streamedBytes += streamed;
        p.weightBytes +=
            streamed +
            static_cast<double>(cm.plan.preloadBytes(cm.fusedGraph));

        {
            core::PlanMemo fresh;
            auto params = opt.opg;
            params.memo = &fresh;
            profiler::AnalyticCapacityProvider capacity(kernel_model,
                                                        opt.thresholds);
            core::LcOpgPlanner planner(cm.fusedGraph, capacity,
                                       kernel_model, params);
            ScopedSpan span("lc_opg.plan");
            planner.plan();
        }
        {
            ScopedSpan span("kernel_rewriter");
            core::KernelRewriter rewriter(cm.fusedGraph, cm.plan,
                                          opt.kernelRewriting);
            p.rewrittenKernels += rewriter.rewriteAll().size();
        }

        gpusim::GpuSimulator sim(dev);
        core::RunResult r;
        double ex = timed([&] {
                        ScopedSpan span("runtime.execute");
                        r = fm.execute(sim, cm);
                    }).wall;
        check(!r.oom, m.name + ": probe execution reported OOM");
        p.executeSeconds[cm.fusedGraph.name()] = ex;
        p.kernels += r.kernels;
        p.initMs += toMilliseconds(r.initLatency());
        p.execMs += toMilliseconds(r.execLatency());
        p.stallMs += toMilliseconds(r.stallTime);
        p.latencyMs += toMilliseconds(r.integratedLatency());
        p.diskMiB += toMiB(sim.disk().bytesMoved());
        p.transformMiB += toMiB(sim.transformQueue().bytesMoved());
        p.diskBusyMs += toMilliseconds(sim.disk().busyTime());
        p.computeBusyMs += toMilliseconds(sim.computeQueue().busyTime());
        const auto &mem = sim.memory();
        p.peakUnifiedMiB = std::max(
            p.peakUnifiedMiB, toMiB(mem.peak(gpusim::MemKind::UnifiedWeights)));
        p.peakTextureMiB = std::max(
            p.peakTextureMiB, toMiB(mem.peak(gpusim::MemKind::TextureWeights)));
        p.peakActivationMiB = std::max(
            p.peakActivationMiB, toMiB(mem.peak(gpusim::MemKind::Activations)));

        if (replan) {
            core::CompiledModel rc;
            double t = timed([&] {
                           ScopedSpan span("flashmem.replan");
                           rc = fm.replan(cm, cm.planBudget / 2);
                       }).wall;
            check(rc.plan.validate(rc.fusedGraph, false),
                  m.name + ": replanned plan fails validation");
            p.replanMs.push_back(t * 1e3);
            p.replanMemoHits += rc.stats.memoHits;
        }
        p.compiled.emplace(m.name, std::move(cm));
    }
    return p;
}

void
probeMetrics(const Probe &p, Metrics &m)
{
    m.set("fusion.rounds", p.fusionRounds, "count");
    m.set("fusion.groups_split", p.groupsSplit, "count");
    m.set("lc_opg.stage_s", p.stageS, "s");
    m.set("lc_opg.build_s", p.cpBuildS, "s");
    m.set("lc_opg.solve_s", p.solveS, "s");
    m.set("lc_opg.solve_cpu_s", p.solveCpuS, "s");
    m.set("lc_opg.merge_s", p.mergeS, "s");
    m.set("lc_opg.windows", p.windows, "count");
    m.set("lc_opg.optimal_frac",
          p.windows ? static_cast<double>(p.optimalWindows) / p.windows
                    : 0.0,
          "fraction");
    m.set("lc_opg.greedy_windows", p.greedyWindows, "count");
    m.set("lc_opg.soft_relaxations", p.softRelaxations, "count");
    m.set("lc_opg.memo_hits", static_cast<double>(p.memoHits), "count");
    m.set("lc_opg.streamed_frac",
          p.weightBytes > 0 ? p.streamedBytes / p.weightBytes : 0.0,
          "fraction");
    m.set("solver.decisions", static_cast<double>(p.decisions), "count");
    m.set("solver.propagations", static_cast<double>(p.propagations),
          "count");
    m.set("solver.conflicts", static_cast<double>(p.conflicts), "count");
    m.set("solver.restarts", static_cast<double>(p.restarts), "count");
    m.set("solver.decisions_per_cpu_s",
          p.solveCpuS > 0 ? static_cast<double>(p.decisions) / p.solveCpuS
                          : 0.0,
          "decisions/s");
    m.set("kernel_rewriter.kernels",
          static_cast<double>(p.rewrittenKernels), "count");
    m.set("gpusim.init_ms", p.initMs, "sim_ms");
    m.set("gpusim.exec_ms", p.execMs, "sim_ms");
    m.set("gpusim.stall_ms", p.stallMs, "sim_ms");
    m.set("gpusim.disk_mb", p.diskMiB, "MiB");
    m.set("gpusim.transform_mb", p.transformMiB, "MiB");
    m.set("gpusim.disk_busy_frac",
          p.latencyMs > 0 ? p.diskBusyMs / p.latencyMs : 0.0, "fraction");
    m.set("gpusim.compute_busy_frac",
          p.latencyMs > 0 ? p.computeBusyMs / p.latencyMs : 0.0,
          "fraction");
    m.set("gpusim.peak_unified_mb", p.peakUnifiedMiB, "MiB");
    m.set("gpusim.peak_texture_mb", p.peakTextureMiB, "MiB");
    m.set("gpusim.peak_activation_mb", p.peakActivationMiB, "MiB");
}

/** Span-derived self times of the layers the probe called. */
void
spanMetrics(const Probe &p, Metrics &m)
{
    auto self = [&](const char *name) {
        return gSpans->selfSeconds(name, p.firstSpan);
    };
    m.set("models.build_s", self("models.build"), "s");
    m.set("fusion.s", self("fusion"), "s");
    m.set("lc_opg.plan_s", self("lc_opg.plan"), "s");
    m.set("kernel_rewriter.s", self("kernel_rewriter"), "s");
    double exec_s = self("runtime.execute");
    m.set("runtime.execute_s", exec_s, "s");
    m.set("runtime.ns_per_kernel",
          p.kernels ? exec_s * 1e9 / static_cast<double>(p.kernels) : 0.0,
          "ns/kernel");
}

void
replanMetrics(int replans, double replan_s, std::uint64_t memo_hits,
              const std::vector<double> &replay_ms, Metrics &m)
{
    m.set("lc_opg.replans", replans, "count");
    m.set("lc_opg.replan_s", replan_s, "s");
    m.set("lc_opg.replan_memo_hits", static_cast<double>(memo_hits),
          "count");
    m.set("lc_opg.replan_p50_ms", percentile(replay_ms, 0.5), "ms");
    m.set("lc_opg.replan_max_ms", percentile(replay_ms, 1.0), "ms");
}

/** Request-layer counters; zero on workloads without requests. */
void
requestMetrics(Metrics &m,
               const std::vector<multidnn::DeviceUtilization> &devices,
               const multidnn::FaultCounters &f, std::size_t requests,
               std::size_t shed, std::size_t arrival_sheds,
               std::size_t degraded, std::size_t events)
{
    int plan_switches = 0;
    double compute_util = 0.0, dma_util = 0.0;
    for (const auto &d : devices) {
        plan_switches += d.planSwitches;
        compute_util += d.computeUtilization;
        dma_util += d.dmaUtilization;
    }
    if (!devices.empty()) {
        compute_util /= static_cast<double>(devices.size());
        dma_util /= static_cast<double>(devices.size());
    }
    auto count = [](std::size_t n) { return static_cast<double>(n); };
    m.set("multidnn.requests", count(requests), "count");
    m.set("multidnn.plan_switches", plan_switches, "count");
    m.set("multidnn.compute_util", compute_util, "fraction");
    m.set("multidnn.dma_util", dma_util, "fraction");
    m.set("multidnn.retries", f.retries, "count");
    m.set("multidnn.failovers", f.failovers, "count");
    m.set("multidnn.crashes", f.crashes, "count");
    m.set("multidnn.fault_sheds", f.faultSheds, "count");
    m.set("multidnn.starved", f.starved, "count");
    m.set("serving.arrival_sheds", count(arrival_sheds), "count");
    m.set("serving.dispatch_sheds",
          count(shed) - count(arrival_sheds) - f.faultSheds - f.starved,
          "count");
    m.set("serving.degraded", count(degraded), "count");
    m.set("obs.events", count(events), "count");
}

// -------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corruptAccounting = false;
    std::string report;
};

/** Workload-specific or host-side numbers that go to the report only. */
using Extras = std::map<std::string, double>;

/**
 * One untimed warm-up call of @p unit (rep -1: caches fill, thread
 * pools start), then timed calls until @p seconds of wall time have
 * passed, at least @p min_reps of them. Each timed call gets the
 * reference time measured just before it.
 */
template <typename Fn>
void
repeatFor(double seconds, int min_reps, Fn &&unit)
{
    unit(-1, Reference{});
    double start = wallNow();
    for (int rep = 0; rep < min_reps || wallNow() - start < seconds; ++rep)
        unit(rep, referenceNow());
}

/** Log every timed repetition of @p what to stderr. */
void
logReps(const char *what, const std::vector<double> &walls)
{
    std::cerr << what << " reps:";
    for (double w : walls)
        std::cerr << ' ' << jsonNumber(w);
    std::cerr << "\n";
}

/** Run @p setup @p reps times (each handed the reference time measured
 * just before it); returns the last result and the median wall
 * seconds, checking that every set-up agrees. */
template <typename Setup, typename Sig>
auto
repeatedSetup(int reps, Setup &&setup, Sig &&signature, double *median_s)
{
    std::vector<double> walls;
    decltype(setup(Reference{})) last{};
    std::string first_sig;
    for (int i = 0; i < reps; ++i) {
        last = {}; // one set-up alive at a time keeps host_rss_mb steady
        Reference ref = referenceNow();
        double t0 = wallNow();
        auto s = setup(ref);
        walls.push_back(wallNow() - t0);
        std::string sig = signature(s);
        if (i == 0)
            first_sig = sig;
        else
            check(sig == first_sig, "set-up differs between repetitions");
        last = std::move(s);
    }
    logReps("setup", walls);
    *median_s = median(walls);
    return last;
}

void
runZoo(const Args &a, Metrics &m, Extras &x, std::size_t &attempted)
{
    double setup_s = 0.0;
    auto setup = repeatedSetup(
        kZooSetupReps,
        [](const Reference &) {
            return std::make_unique<ZooSetup>(zooSetup());
        },
        [](const std::unique_ptr<ZooSetup> &s) {
            std::size_t nodes = 0;
            for (const auto &g : s->graphs)
                nodes += g.layerCount();
            return std::to_string(nodes);
        },
        &setup_s);
    // The seed fixes the compile order; results must not depend on it.
    std::vector<std::size_t> order(setup->set.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(a.seed);
    std::shuffle(order.begin(), order.end(), rng);
    attempted = order.size();

    // *_w: raw wall seconds; *_n: the same over the adjacent reference.
    std::vector<double> compile_w, compile_n, compile_c, exec_w, exec_n,
        traced_n, untraced_n;
    std::string sig0;
    ZooPass last;
    SpanRecorder *spans = gSpans;
    repeatFor(a.seconds, a.trace ? 2 : 3, [&](int rep, const Reference &ref) {
        // Traced runs alternate span-on and span-off passes for the
        // tracing-overhead ratio.
        bool traced = a.trace && rep % 2 == 1;
        gSpans = traced ? spans : nullptr;
        double t0 = wallNow();
        ZooPass p = zooPass(*setup, order);
        if (rep >= 0)
            (traced ? traced_n : untraced_n)
                .push_back((wallNow() - t0) / ref.compute);
        gSpans = spans;
        std::string sig = zooSignature(p);
        if (sig0.empty())
            sig0 = sig;
        check(sig == sig0, "zoo_compile: sim outcome differs between "
                           "repetitions" +
                               std::string(traced ? " (traced)" : ""));
        if (rep >= 0) {
            compile_w.push_back(p.compileWall);
            compile_n.push_back(p.compileWall / ref.compute);
            compile_c.push_back(p.compileCpu);
            exec_w.push_back(p.executeWall);
            exec_n.push_back(p.executeWall / ref.memory);
        }
        last = std::move(p);
    });

    logReps("compile", compile_w);

    logReps("execute", exec_w);
    std::vector<double> lat, peak;
    int windows = 0, optimal = 0;
    for (const auto &r : last.models) {
        lat.push_back(r.latencyMs);
        peak.push_back(r.peakMiB);
        windows += r.windows;
        optimal += r.optimalWindows;
    }
    x["compile_raw_s"] = median(compile_w);
    x["compile_cpu_s"] = median(compile_c);
    x["drain_raw_s"] = median(exec_w);
    x["passes"] = static_cast<double>(compile_w.size());

    if (!a.trace) {
        m.set("setup_s", setup_s, "s");
        m.set("compile_s", computeRefSeconds(compile_n), "ref_s");
        m.set("sim_latency_ms", geoMean(lat), "sim_ms");
        m.set("sim_peak_mem_mb", geoMean(peak), "MiB");
        m.set("drain_s", memoryRefSeconds(exec_n), "ref_s");
        m.set("sim_p50_ms", percentile(lat, 0.50), "sim_ms");
        m.set("sim_p95_ms", percentile(lat, 0.95), "sim_ms");
        m.set("sim_p99_ms", percentile(lat, 0.99), "sim_ms");
        m.set("serve_rps",
              static_cast<double>(attempted) /
                  (computeRefSeconds(compile_n) + memoryRefSeconds(exec_n)),
              "requests/ref_s");
        std::size_t ok = 0;
        for (const auto &r : last.models)
            ok += !r.oom;
        m.set("goodput", static_cast<double>(ok) / attempted, "fraction");
        m.set("shed_frac",
              windows ? 1.0 - static_cast<double>(optimal) / windows : 0.0,
              "fraction");
        return;
    }

    auto probe = probeLayers(setup->set, defaultOptions, true);
    probeMetrics(probe, m);
    spanMetrics(probe, m);
    double replan_s = 0.0;
    for (double ms : probe.replanMs)
        replan_s += ms / 1e3;
    replanMetrics(static_cast<int>(probe.replanMs.size()), replan_s,
                  probe.replanMemoHits, probe.replanMs, m);
    requestMetrics(m, {}, {}, 0, 0, 0, 0, 0);
    m.set("obs.trace_on_ratio", median(traced_n) / median(untraced_n),
          "ratio");
}

/** Replay every (model, budget) the traced drain re-planned at through
 * FlashMem::replan; returns per-call wall milliseconds. */
std::vector<double>
replayReplans(const obs::TraceRecorder &rec, const Probe &probe)
{
    core::PlanMemo memo;
    core::FlashMem fm(device(), fig6Options(&memo));
    std::vector<double> ms;
    for (const auto &e : rec.events()) {
        if (e.kind != obs::EventKind::Replan)
            continue;
        const auto &name =
            models::modelSpec(static_cast<ModelId>(e.model)).abbr;
        const auto &cm = probe.compiled.at(name);
        core::CompiledModel rc;
        double t = timed([&] {
                       ScopedSpan span("lc_opg.replan_replay");
                       rc = fm.replan(cm, static_cast<Bytes>(e.a));
                   }).wall;
        check(rc.plan.validate(rc.fusedGraph, false),
              name + ": replayed replan fails validation");
        ms.push_back(t * 1e3);
    }
    return ms;
}

std::vector<ModelEntry>
entriesFor(const std::vector<ModelId> &ids)
{
    std::vector<ModelEntry> out;
    for (auto id : ids)
        out.push_back(zooEntry(id));
    return out;
}

void
runChurn(const Args &a, Metrics &m, Extras &x, std::size_t &attempted)
{
    double setup_s = 0.0;
    std::vector<double> calibrate_w, calibrate_n;
    auto setup = repeatedSetup(
        kSetupReps,
        [&](const Reference &ref) {
            auto s = churnSetup(a.seed);
            calibrate_w.push_back(s->calibrateWall);
            calibrate_n.push_back(s->calibrateWall / ref.compute);
            return s;
        },
        [](const std::unique_ptr<RequestSetup> &s) {
            return servicesSignature(*s) +
                   std::to_string(s->trace.size());
        },
        &setup_s);
    attempted = setup->trace.size();
    x["serving.calibrate_s"] = median(calibrate_w);
    x["serving.tracegen_s"] = setup->tracegenWall;
    x["offered_qps"] = setup->qps;

    std::vector<double> drain_w, drain_n, drain_c, traced_n, untraced_n;
    std::string sig0;
    ChurnRun last;
    obs::TraceRecorder rec;
    SpanRecorder *spans = gSpans;
    // Two timed drains: each takes several seconds.
    repeatFor(a.seconds, 2, [&](int rep, const Reference &ref) {
        bool traced = a.trace && rep % 2 == 1;
        gSpans = traced ? spans : nullptr;
        if (traced)
            rec.clear();
        last = {}; // one outcome alive at a time keeps host_rss_mb steady
        ChurnRun r = churnRun(*setup, traced ? &rec : nullptr);
        gSpans = spans;
        if (rep >= 0)
            (traced ? traced_n : untraced_n).push_back(r.drain.wall / ref.memory);
        checkChurn(*setup, r.out, a.corruptAccounting);
        std::string sig = churnSignature(r.out);
        if (sig0.empty())
            sig0 = sig;
        check(sig == sig0, "multi_dnn_churn: sim outcome differs between "
                           "repetitions" +
                               std::string(traced ? " (traced)" : ""));
        if (rep >= 0) {
            drain_w.push_back(r.drain.wall);
            drain_n.push_back(r.drain.wall / ref.memory);
            drain_c.push_back(r.drain.cpu);
        }
        last = std::move(r);
    });
    logReps("drain", drain_w);
    const auto &o = last.out;
    x["drain_raw_s"] = median(drain_w);
    x["drain_cpu_s"] = median(drain_c);
    x["drains"] = static_cast<double>(drain_w.size());
    x["lc_opg.replans"] = o.replans;

    if (!a.trace) {
        auto lat = completedLatenciesMs(o);
        m.set("setup_s", setup_s, "s");
        m.set("compile_s", computeRefSeconds(calibrate_n), "ref_s");
        m.set("sim_latency_ms", serviceGeoMeanMs(*setup), "sim_ms");
        m.set("sim_peak_mem_mb", toMiB(o.peakMemory), "MiB");
        m.set("drain_s", memoryRefSeconds(drain_n), "ref_s");
        m.set("sim_p50_ms", percentile(lat, 0.50), "sim_ms");
        m.set("sim_p95_ms", percentile(lat, 0.95), "sim_ms");
        m.set("sim_p99_ms", percentile(lat, 0.99), "sim_ms");
        m.set("serve_rps",
              static_cast<double>(attempted) / memoryRefSeconds(drain_n),
              "requests/ref_s");
        m.set("goodput", o.goodputRate(), "fraction");
        m.set("shed_frac", o.shedRate(), "fraction");
        return;
    }

    auto probe = probeLayers(entriesFor(kChurnModels), fig6Options, false);
    probeMetrics(probe, m);
    spanMetrics(probe, m);
    auto replay = replayReplans(rec, probe);
    replanMetrics(o.replans, o.replanSeconds, o.replanMemoHits, replay, m);
    std::size_t arrival_sheds = 0;
    for (const auto &d : o.shed)
        arrival_sheds += d.reason == multidnn::DropReason::ArrivalShed;
    requestMetrics(m, o.devices, o.faults, attempted, o.shed.size(),
                   arrival_sheds, static_cast<std::size_t>(o.degradedRuns),
                   rec.size());
    m.set("obs.trace_on_ratio", median(traced_n) / median(untraced_n),
          "ratio");
    // Event-loop overhead: the drain minus its re-plans minus the host
    // cost of the streamed executions (probe's per-inference time).
    double exec_s = 0.0;
    for (const auto &r : o.runs) {
        auto it = probe.executeSeconds.find(r.model);
        if (it != probe.executeSeconds.end())
            exec_s += it->second;
    }
    x["multidnn.overhead_s"] = median(drain_w) - o.replanSeconds - exec_s;
}

void
runServe(const Args &a, Metrics &m, Extras &x, std::size_t &attempted)
{
    double setup_s = 0.0;
    std::vector<double> calibrate_w, calibrate_n;
    auto setup = repeatedSetup(
        kSetupReps,
        [&](const Reference &ref) {
            auto s = serveSetup(a.seed);
            calibrate_w.push_back(s->calibrateWall);
            calibrate_n.push_back(s->calibrateWall / ref.compute);
            return s;
        },
        [](const std::unique_ptr<RequestSetup> &s) {
            return servicesSignature(*s) +
                   std::to_string(s->trace.size());
        },
        &setup_s);
    attempted = setup->trace.size();
    x["serving.calibrate_s"] = median(calibrate_w);
    x["serving.tracegen_s"] = setup->tracegenWall;
    x["offered_qps"] = setup->qps;

    std::vector<double> drain_w, drain_n, traced_n, untraced_n;
    std::string sig0;
    ServeRun last;
    obs::TraceRecorder rec;
    SpanRecorder *spans = gSpans;
    repeatFor(a.seconds, a.trace ? 2 : 3, [&](int rep, const Reference &ref) {
        bool traced = a.trace && rep % 2 == 1;
        gSpans = traced ? spans : nullptr;
        if (traced)
            rec.clear();
        ServeRun r = serveRun(*setup, traced ? &rec : nullptr);
        gSpans = spans;
        if (rep >= 0)
            (traced ? traced_n : untraced_n).push_back(r.drain.wall / ref.memory);
        checkServe(*setup, r.out, a.corruptAccounting);
        std::string sig = serveSignature(r.out);
        if (sig0.empty())
            sig0 = sig;
        check(sig == sig0, "serve_overload: sim outcome differs between "
                           "repetitions" +
                               std::string(traced ? " (traced)" : ""));
        if (rep >= 0) {
            drain_w.push_back(r.drain.wall);
            drain_n.push_back(r.drain.wall / ref.memory);
        }
        last = std::move(r);
    });
    logReps("drain", drain_w);
    const auto &o = last.out;
    x["drain_raw_s"] = median(drain_w);
    x["drains"] = static_cast<double>(drain_w.size());
    x["multidnn.ns_per_request"] =
        median(drain_w) * 1e9 / static_cast<double>(attempted);

    if (!a.trace) {
        m.set("setup_s", setup_s, "s");
        m.set("compile_s", computeRefSeconds(calibrate_n), "ref_s");
        m.set("sim_latency_ms", serviceGeoMeanMs(*setup), "sim_ms");
        m.set("sim_peak_mem_mb", toMiB(o.peakMemory), "MiB");
        m.set("drain_s", memoryRefSeconds(drain_n), "ref_s");
        m.set("sim_p50_ms", o.stats.p50Ms(), "sim_ms");
        m.set("sim_p95_ms", o.stats.p95Ms(), "sim_ms");
        m.set("sim_p99_ms", o.stats.p99Ms(), "sim_ms");
        m.set("serve_rps",
              static_cast<double>(attempted) / memoryRefSeconds(drain_n),
              "requests/ref_s");
        m.set("goodput", o.stats.goodputRate(), "fraction");
        m.set("shed_frac", o.stats.shedRate(), "fraction");
        return;
    }

    std::vector<ModelId> ids;
    for (const auto &[id, w] : kServeMix)
        ids.push_back(id);
    auto probe = probeLayers(entriesFor(ids), defaultOptions, true);
    probeMetrics(probe, m);
    spanMetrics(probe, m);
    double replan_s = 0.0;
    for (double ms : probe.replanMs)
        replan_s += ms / 1e3;
    replanMetrics(static_cast<int>(probe.replanMs.size()), replan_s,
                  probe.replanMemoHits, probe.replanMs, m);
    requestMetrics(m, o.devices, o.faults, attempted, o.stats.shedCount(),
                   o.arrivalSheds, o.stats.degradedCount(), rec.size());
    m.set("obs.trace_on_ratio", median(traced_n) / median(untraced_n),
          "ratio");
}

void
writeReport(const Args &a, const Metrics &m, const Extras &x,
            std::size_t attempted)
{
    std::ofstream os(a.report);
    os << "{\n  \"workload\": " << jsonString(a.workload)
       << ",\n  \"trace\": " << (a.trace ? 1 : 0)
       << ",\n  \"attempted\": " << attempted
       << ",\n  \"fingerprint\": {";
    bool first = true;
    for (const auto &[k, v] : fingerprint(a.seed)) {
        os << (first ? "" : ", ") << jsonString(k) << ": "
           << jsonString(v);
        first = false;
    }
    os << "},\n  \"metrics\": " << metricsJson(m.list())
       << ",\n  \"extras\": {";
    first = true;
    for (const auto &[k, v] : x) {
        os << (first ? "" : ", ") << jsonString(k) << ": "
           << jsonNumber(v);
        first = false;
    }
    os << "},\n  \"failures\": [";
    for (std::size_t i = 0; i < gFailures.size(); ++i)
        os << (i ? ", " : "") << jsonString(gFailures[i]);
    os << "],\n  \"spans\": [";
    if (gSpans) {
        const auto &spans = gSpans->spans();
        for (std::size_t i = 0; i < spans.size(); ++i)
            os << (i ? ",\n    " : "\n    ") << "{\"id\": " << i
               << ", \"name\": " << jsonString(spans[i].name)
               << ", \"start\": " << jsonNumber(spans[i].start)
               << ", \"end\": " << jsonNumber(spans[i].end)
               << ", \"parent\": " << spans[i].parent << "}";
    }
    os << "]\n}\n";
    if (!os.good())
        std::cerr << "warning: could not write report " << a.report << "\n";
}

int
usage()
{
    std::cerr << "usage: perfbench --workload zoo_compile|multi_dnn_churn|"
                 "serve_overload --seed N --seconds S --trace 0|1 "
                 "[--report PATH] [--corrupt-accounting]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = value() == "1";
        else if (k == "--report")
            a.report = value();
        else if (k == "--corrupt-accounting")
            a.corruptAccounting = true;
        else
            return usage();
    }

    std::function<void(const Args &, Metrics &, Extras &, std::size_t &)>
        run;
    if (a.workload == "zoo_compile")
        run = runZoo;
    else if (a.workload == "multi_dnn_churn")
        run = runChurn;
    else if (a.workload == "serve_overload")
        run = runServe;
    else
        return usage();

    for (const auto &[k, v] : fingerprint(a.seed))
        std::cerr << "fingerprint " << k << " = " << v << "\n";

    SpanRecorder spans;
    if (a.trace)
        gSpans = &spans;
    Metrics m;
    Extras x;
    std::size_t attempted = 0;
    run(a, m, x, attempted);
    if (!a.trace)
        m.set("host_rss_mb", peakRssMiB(), "MiB");
    x["host_rss_mb"] = peakRssMiB();

    for (const auto &[k, v] : x)
        std::cerr << "extra " << k << " = " << jsonNumber(v) << "\n";
    if (!a.report.empty())
        writeReport(a, m, x, attempted);
    if (!gFailures.empty()) {
        std::cerr << gFailures.size() << " correctness check(s) failed; "
                  << "no result printed\n";
        return 1;
    }
    std::cout << "{\"correct\": true, \"attempted\": " << attempted
              << ", \"failed\": 0, \"metrics\": " << metricsJson(m.list())
              << "}" << std::endl;
    return 0;
}
