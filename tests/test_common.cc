/**
 * @file
 * Unit tests for src/common: time/size units, RNG determinism, statistics
 * accumulators, time series, and table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include <atomic>
#include <stdexcept>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"

namespace flashmem {
namespace {

TEST(Types, TimeUnitRoundTrip)
{
    EXPECT_EQ(milliseconds(1.0), 1'000'000);
    EXPECT_EQ(microseconds(1.0), 1'000);
    EXPECT_EQ(seconds(2.0), 2'000'000'000);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(4.0)), 4.0);
}

TEST(Types, ByteUnits)
{
    EXPECT_EQ(kib(1), 1024u);
    EXPECT_EQ(mib(1), 1024u * 1024u);
    EXPECT_EQ(gib(1), 1024ull * 1024 * 1024);
    EXPECT_DOUBLE_EQ(toMiB(mib(512)), 512.0);
    EXPECT_DOUBLE_EQ(toGiB(gib(3)), 3.0);
}

TEST(Types, BandwidthTransferTime)
{
    auto bw = Bandwidth::gbps(1.0); // 1 GB/s
    EXPECT_EQ(bw.transferTime(1'000'000'000ull), seconds(1.0));
    // Rounds up: 1 byte at 1 GB/s is 1 ns exactly.
    EXPECT_EQ(bw.transferTime(1), 1);
    // Zero bandwidth means "never".
    EXPECT_EQ(Bandwidth{0.0}.transferTime(1), kTimeNever);
}

TEST(Types, BandwidthNeverReturnsZeroForNonzeroBytes)
{
    auto bw = Bandwidth::gbps(560.0); // fastest channel in the model
    EXPECT_GT(bw.transferTime(1), 0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(3, 8);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 8);
        saw_lo |= (v == 3);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStat st;
    for (int i = 0; i < 50000; ++i)
        st.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(st.mean(), 10.0, 0.1);
    EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(v);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_NEAR(st.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_DOUBLE_EQ(st.mean(), 0.0);
    EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

// ------------------------------------------------- P2 quantile estimator

/** Exact empirical quantile by sorting (nearest-rank). */
double
exactQuantile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(xs.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), xs.size());
    return xs[rank - 1];
}

TEST(P2Quantile, ExactForSmallStreams)
{
    P2Quantile q(0.5);
    EXPECT_EQ(q.value(), 0.0);
    q.add(30.0);
    EXPECT_DOUBLE_EQ(q.value(), 30.0);
    q.add(10.0);
    q.add(20.0);
    // Nearest-rank median of {10, 20, 30}.
    EXPECT_DOUBLE_EQ(q.value(), 20.0);
    EXPECT_EQ(q.count(), 3u);
}

TEST(P2Quantile, TracksUniformQuantiles)
{
    // 50k uniform draws: the estimate must land within 1% of the range
    // of the exact sorted quantile, for the median and both tails.
    Rng rng(42);
    std::vector<double> xs;
    P2Quantile p50(0.50), p95(0.95), p99(0.99);
    for (int i = 0; i < 50000; ++i) {
        double x = rng.uniform(0.0, 1000.0);
        xs.push_back(x);
        p50.add(x);
        p95.add(x);
        p99.add(x);
    }
    EXPECT_NEAR(p50.value(), exactQuantile(xs, 0.50), 10.0);
    EXPECT_NEAR(p95.value(), exactQuantile(xs, 0.95), 10.0);
    EXPECT_NEAR(p99.value(), exactQuantile(xs, 0.99), 10.0);
}

TEST(P2Quantile, TracksHeavyTailedQuantiles)
{
    // Exponential tail (the shape request latencies take): estimates
    // stay within 3% of the exact quantile value.
    Rng rng(7);
    std::vector<double> xs;
    P2Quantile p50(0.50), p99(0.99);
    for (int i = 0; i < 100000; ++i) {
        double x = -std::log1p(-rng.uniform());
        xs.push_back(x);
        p50.add(x);
        p99.add(x);
    }
    double exact50 = exactQuantile(xs, 0.50);
    double exact99 = exactQuantile(xs, 0.99);
    EXPECT_NEAR(p50.value(), exact50, 0.03 * exact50);
    EXPECT_NEAR(p99.value(), exact99, 0.03 * exact99);
    // ~ln 2 and ~ln 100 analytically.
    EXPECT_NEAR(p50.value(), std::log(2.0), 0.05);
    EXPECT_NEAR(p99.value(), std::log(100.0), 0.25);
}

TEST(P2Quantile, MatchesExactQuantileBelowFiveSamples)
{
    // The estimator only switches to the parabolic marker update at
    // five samples; before that value() must be the exact nearest-rank
    // quantile of the stored observations, at every probed p.
    const std::vector<double> stream = {42.0, 7.0, 19.0, 3.5};
    for (double p : {0.10, 0.50, 0.90, 0.99}) {
        std::vector<double> xs;
        P2Quantile q(p);
        for (double x : stream) {
            q.add(x);
            xs.push_back(x);
            EXPECT_DOUBLE_EQ(q.value(), exactQuantile(xs, p))
                << "p=" << p << " n=" << xs.size();
        }
    }
}

TEST(P2Quantile, ConstantStreamCollapsesToTheValue)
{
    // All five markers land on the same height: the degenerate case
    // for the parabolic update (every marker gap is zero).
    P2Quantile q(0.99);
    for (int i = 0; i < 10000; ++i)
        q.add(250.0);
    EXPECT_EQ(q.count(), 10000u);
    EXPECT_DOUBLE_EQ(q.value(), 250.0);
}

TEST(P2Quantile, DuplicateHeavyStreamStaysNearExact)
{
    // Latency streams over a calibrated service table are massively
    // duplicate-heavy: every uncontended run of a model costs the same
    // integer nanoseconds, so adjacent markers collide constantly —
    // exactly where the parabolic update degenerates. The estimate
    // must stay inside the observed range and track the exact sorted
    // quantile (both probed quantiles sit well inside a plateau, so
    // the exact answer is stable against sampling noise).
    Rng rng(21);
    const double values[] = {10.0, 10.0, 10.0, 10.0, 40.0, 160.0};
    std::vector<double> xs;
    P2Quantile p50(0.50), p99(0.99);
    for (int i = 0; i < 30000; ++i) {
        double x = values[rng.uniformInt(0, 5)];
        xs.push_back(x);
        p50.add(x);
        p99.add(x);
    }
    double exact50 = exactQuantile(xs, 0.50); // inside the 10-plateau
    double exact99 = exactQuantile(xs, 0.99); // inside the 160-plateau
    EXPECT_DOUBLE_EQ(exact50, 10.0);
    EXPECT_DOUBLE_EQ(exact99, 160.0);
    EXPECT_GE(p50.value(), 10.0);
    EXPECT_LE(p99.value(), 160.0);
    EXPECT_NEAR(p50.value(), exact50, 0.25 * exact50);
    EXPECT_NEAR(p99.value(), exact99, 0.25 * exact99);
}

TEST(P2Quantile, IsDeterministicForAGivenStream)
{
    Rng a(11), b(11);
    P2Quantile qa(0.95), qb(0.95);
    for (int i = 0; i < 10000; ++i) {
        qa.add(a.gaussian(100.0, 15.0));
        qb.add(b.gaussian(100.0, 15.0));
    }
    EXPECT_EQ(qa.value(), qb.value()); // bit-identical
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Geomean, IgnoresNonPositive)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, 0.0, -5.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(TimeSeries, PeakAndAverage)
{
    TimeSeries ts;
    ts.record(0, 100.0);
    ts.record(milliseconds(10), 300.0);
    ts.record(milliseconds(20), 0.0);
    EXPECT_DOUBLE_EQ(ts.peak(), 300.0);
    // 100 for 10ms, 300 for 10ms => avg 200 over [0, 20ms].
    EXPECT_DOUBLE_EQ(ts.timeWeightedAverage(0, milliseconds(20)), 200.0);
}

TEST(TimeSeries, ValueAt)
{
    TimeSeries ts;
    ts.record(10, 1.0);
    ts.record(20, 2.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(5), 0.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(10), 1.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(15), 1.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(25), 2.0);
}

TEST(TimeSeries, SameTimestampLastWriteWins)
{
    TimeSeries ts;
    ts.record(10, 1.0);
    ts.record(10, 5.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(10), 5.0);
    EXPECT_EQ(ts.points().size(), 1u);
}

TEST(TimeSeries, WindowedAverageSubrange)
{
    TimeSeries ts;
    ts.record(0, 10.0);
    ts.record(100, 20.0);
    ts.record(200, 30.0);
    EXPECT_DOUBLE_EQ(ts.timeWeightedAverage(100, 200), 20.0);
    EXPECT_DOUBLE_EQ(ts.timeWeightedAverage(150, 250), 25.0);
}

TEST(TimeSeries, MaxOverWindow)
{
    TimeSeries ts;
    ts.record(10, 1.0);
    ts.record(20, 7.0);
    ts.record(30, 3.0);
    // The value in effect at start counts, even if set before it.
    EXPECT_DOUBLE_EQ(ts.maxOver(25, 40), 7.0);
    EXPECT_DOUBLE_EQ(ts.maxOver(30, 40), 3.0);
    // Points up to and including end count.
    EXPECT_DOUBLE_EQ(ts.maxOver(10, 19), 1.0);
    EXPECT_DOUBLE_EQ(ts.maxOver(10, 20), 7.0);
    EXPECT_DOUBLE_EQ(ts.maxOver(0, 5), 0.0);
    EXPECT_DOUBLE_EQ(ts.maxOver(20, 10), 7.0);
}

// Linear-scan reference implementations of the window queries. They
// visit every point from t = 0, so any difference in which points the
// binary-searched queries visit, or in their summation order, shows as
// a bit difference.
double
linearValueAt(const std::vector<TimeSeries::Point> &points, SimTime time)
{
    double current = 0.0;
    for (const auto &pt : points) {
        if (pt.time > time)
            break;
        current = pt.value;
    }
    return current;
}

double
linearMaxOver(const std::vector<TimeSeries::Point> &points, SimTime start,
              SimTime end)
{
    double best = linearValueAt(points, start);
    for (const auto &pt : points) {
        if (pt.time > start && pt.time <= end)
            best = std::max(best, pt.value);
    }
    return best;
}

double
linearAverage(const std::vector<TimeSeries::Point> &points, SimTime start,
              SimTime end)
{
    if (points.empty() || end <= start)
        return 0.0;
    double area = 0.0;
    double current = 0.0;
    SimTime cursor = start;
    for (const auto &pt : points) {
        if (pt.time <= start) {
            current = pt.value;
            continue;
        }
        if (pt.time >= end)
            break;
        area += current * static_cast<double>(pt.time - cursor);
        cursor = pt.time;
        current = pt.value;
    }
    area += current * static_cast<double>(end - cursor);
    return area / static_cast<double>(end - start);
}

/**
 * Seeded random step series. Time steps of 0 exercise same-timestamp
 * collapses; a small palette of values (0 included) makes repeated
 * values common; non-integral values make the average's rounding depend
 * on the summation order.
 */
TimeSeries
randomStepSeries(Rng &rng, int samples)
{
    std::vector<double> palette = {0.0};
    for (int i = 0; i < 5; ++i)
        palette.push_back(rng.uniform(0.0, 1e9));
    TimeSeries ts;
    SimTime t = rng.uniformInt(-50, 50);
    for (int i = 0; i < samples; ++i) {
        t += rng.uniformInt(0, 4) == 0 ? 0 : rng.uniformInt(1, 1000);
        ts.record(t, palette[static_cast<std::size_t>(
                         rng.uniformInt(0, 5))]);
    }
    return ts;
}

TEST(TimeSeries, WindowQueriesMatchLinearScanOracle)
{
    Rng rng(2024);
    for (int series = 0; series < 40; ++series) {
        int samples = series == 0 ? 0 : static_cast<int>(
                                            rng.uniformInt(1, 300));
        TimeSeries ts = randomStepSeries(rng, samples);
        const auto &pts = ts.points();
        for (std::size_t i = 1; i < pts.size(); ++i)
            ASSERT_LT(pts[i - 1].time, pts[i].time);

        // Probe times: on every sample, one either side of it, before
        // the first and after the last sample, and random ones between.
        std::vector<SimTime> probes = {-1000, 0};
        for (const auto &pt : pts) {
            probes.push_back(pt.time - 1);
            probes.push_back(pt.time);
            probes.push_back(pt.time + 1);
        }
        SimTime last = pts.empty() ? 0 : pts.back().time;
        probes.push_back(last + 1000);
        for (int i = 0; i < 20; ++i)
            probes.push_back(rng.uniformInt(-100, last + 100));

        // Windows: every probe against itself (start == end), against
        // a random probe in both orders (so end < start occurs), and
        // against points before and after the series.
        std::vector<std::pair<SimTime, SimTime>> windows;
        for (SimTime p : probes) {
            SimTime q = probes[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(probes.size()) - 1))];
            windows.push_back({p, p});
            windows.push_back({p, q});
            windows.push_back({q, p});
            windows.push_back({-1000, p});
            windows.push_back({p, last + 1000});
        }

        for (SimTime p : probes)
            ASSERT_EQ(ts.valueAt(p), linearValueAt(pts, p))
                << "series " << series << " t=" << p;
        for (auto [start, end] : windows) {
            ASSERT_EQ(ts.maxOver(start, end),
                      linearMaxOver(pts, start, end))
                << "series " << series << " [" << start << ", " << end
                << "]";
            ASSERT_EQ(ts.timeWeightedAverage(start, end),
                      linearAverage(pts, start, end))
                << "series " << series << " [" << start << ", " << end
                << "]";
        }
        if (pts.size() >= 2) {
            ASSERT_EQ(ts.timeWeightedAverage(),
                      linearAverage(pts, pts.front().time, last))
                << "series " << series;
        }
    }
}

TEST(StrUtil, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
    EXPECT_EQ(formatWithCommas(-1234), "-1,234");
    EXPECT_EQ(formatBytes(mib(1.5)), "1.5 MB");
    EXPECT_EQ(formatRatio(8.44), "8.4x");
    EXPECT_EQ(formatMs(milliseconds(3212)), "3,212 ms");
    EXPECT_EQ(formatMs(microseconds(500)), "500.0 us");
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Model", "Latency"});
    t.addRow({"ViT", "347"});
    t.addRow({"GPTN-1.3B", "3086"});
    std::string s = t.toString();
    EXPECT_NE(s.find("Model"), std::string::npos);
    EXPECT_NE(s.find("GPTN-1.3B"), std::string::npos);
    // All lines share the same width.
    std::size_t first_nl = s.find('\n');
    std::size_t width = first_nl;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t nl = s.find('\n', pos);
        if (nl == std::string::npos)
            break;
        EXPECT_EQ(nl - pos, width);
        pos = nl + 1;
    }
}

TEST(Table, PadsShortRows)
{
    Table t({"A", "B", "C"});
    t.addRow({"x"});
    EXPECT_EQ(t.rowCount(), 1u);
    EXPECT_NE(t.toString().find("x"), std::string::npos);
}

TEST(ThreadPool, ThrowingTaskReachesWaiterAndPoolStaysUsable)
{
    ThreadPool pool(2);

    auto bad = pool.submit([]() -> int {
        throw std::runtime_error("task exploded");
    });
    EXPECT_THROW(
        {
            try {
                bad.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "task exploded");
                throw;
            }
        },
        std::runtime_error);

    // The worker that ran the throwing task is still alive: the pool
    // keeps draining work on all threads afterwards.
    // FMLINT(allow:cross-thread-state) test-only completion counter: only the final total is asserted, order-independent
    std::atomic<int> ran{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i, &ran]() {
            ++ran;
            return i * i;
        }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ManyThrowingTasksInterleavedWithGoodOnes)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 60; ++i)
        futures.push_back(pool.submit([i]() -> int {
            if (i % 3 == 0)
                throw std::logic_error("odd one out");
            return i;
        }));
    int ok = 0, threw = 0;
    for (auto &f : futures) {
        try {
            f.get();
            ++ok;
        } catch (const std::logic_error &) {
            ++threw;
        }
    }
    EXPECT_EQ(ok, 40);
    EXPECT_EQ(threw, 20);
}

} // namespace
} // namespace flashmem
