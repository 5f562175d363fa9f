/**
 * @file
 * Plan purity gate: a shipped plan is a pure function of (graph,
 * device, options), not of what the process planned before. For every
 * Table-6 model, at planner threads 1 and 4, one FlashMem compiles the
 * model three times and a second FlashMem with a fresh memo compiles
 * it once. Every compile must ship the same plan bytes and the same
 * planner counters; the repeats must complete window rounds from the
 * memo; and no window may stop on the wall-clock backstop.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/flashmem.hh"
#include "models/model_zoo.hh"

namespace flashmem::core {
namespace {

/** One Table-6 model; prints (and so names its ctest case) by abbr. */
struct Table6Model
{
    models::ModelId id{};
};

void
PrintTo(const Table6Model &m, std::ostream *os)
{
    *os << models::modelSpec(m.id).abbr;
}

std::vector<Table6Model>
table6Models()
{
    std::vector<Table6Model> out;
    for (const auto &spec : models::modelZoo())
        out.push_back({spec.id});
    return out;
}

/** Every planner counter of a compile except host times, threads and
 * memo hits. */
std::string
plannerCounters(const CompiledModel &cm)
{
    const auto &s = cm.stats;
    std::ostringstream os;
    os << cm.fusionRounds << ' ' << cm.groupsSplit << ' '
       << cm.totalSolverDecisions << '\n'
       << static_cast<int>(s.overallStatus) << ' ' << s.windows << ' '
       << s.optimalWindows << ' ' << s.feasibleWindows << ' '
       << s.softRelaxations << ' ' << s.forcedPreloads << ' '
       << s.greedyWindows << ' ' << s.rebalancedChunks << ' '
       << s.rebalancedWeights << ' ' << s.solverDecisions << ' '
       << s.solverRestarts << ' ' << s.timeLimitedWindows << ' '
       << s.solverPropagations << ' ' << s.solverConflicts << '\n';
    for (const auto &w : s.windowSummaries) {
        os << w.window << ' ' << static_cast<int>(w.status) << ' '
           << w.usedGreedy << ' ' << w.decisions << ' '
           << w.propagations << ' ' << w.conflicts << ' ' << w.restarts
           << '\n';
    }
    return os.str();
}

class PlanPurity : public ::testing::TestWithParam<Table6Model>
{
};

TEST_P(PlanPurity, RepeatAndFreshCompilesShipTheSamePlan)
{
    const auto g = models::buildModel(GetParam().id);
    std::string ref_plan, ref_counters;
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        FlashMemOptions opt;
        opt.opg.parallel.threads = threads;
        FlashMem fm(gpusim::DeviceProfile::onePlus12(), opt);
        FlashMem fresh(gpusim::DeviceProfile::onePlus12(), opt);
        for (int run = 0; run < 4; ++run) {
            SCOPED_TRACE(run);
            const bool repeat = run == 1 || run == 2;
            const auto cm = (run < 3 ? fm : fresh).compile(g);
            const auto plan = cm.plan.serialize();
            const auto counters = plannerCounters(cm);
            if (ref_plan.empty()) {
                ref_plan = plan;
                ref_counters = counters;
            }
            EXPECT_EQ(plan, ref_plan);
            EXPECT_EQ(counters, ref_counters);
            EXPECT_EQ(cm.stats.timeLimitedWindows, 0);
            if (repeat) {
                EXPECT_GT(cm.planMemoHits, 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table6, PlanPurity, ::testing::ValuesIn(table6Models()),
    [](const ::testing::TestParamInfo<Table6Model> &info) {
        std::string name = models::modelSpec(info.param.id).abbr;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace flashmem::core
