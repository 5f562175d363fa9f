#include "solver/flow.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace flashmem::solver {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/** Residual graph: arc a and its reverse a ^ 1 are stored as a pair. */
class Network
{
  public:
    explicit Network(int nodes) : out_(nodes) {}

    int
    addArc(int from, int to, std::int64_t cap, std::int64_t cost)
    {
        const int id = static_cast<int>(arcs_.size());
        arcs_.push_back({to, cap, cost});
        arcs_.push_back({from, 0, -cost});
        out_[from].push_back(id);
        out_[to].push_back(id + 1);
        return id;
    }

    /** Flow on forward arc @p id: its reverse's residual capacity. */
    std::int64_t flow(int id) const { return arcs_[id ^ 1].cap; }

    /**
     * Route every unit @p s can send to @p t at minimum cost by
     * successive shortest paths. Every forward arc points along
     * @p topo, so the empty flow's residual graph is a DAG: one pass in
     * that order gives potentials that make every reduced cost
     * non-negative, and each path after that is a Dijkstra search.
     * The search stops once @p t is settled and shifts only the settled
     * nodes' potentials, by their distance less t's: every other node
     * is at least as far as t, so reduced costs stay non-negative.
     * @return (units routed, paths augmented).
     */
    std::pair<std::int64_t, std::uint64_t>
    minCostFlow(int s, int t, const std::vector<int> &topo)
    {
        const int n = static_cast<int>(out_.size());
        std::vector<std::int64_t> pot(n, kInf);
        pot[s] = 0;
        for (int u : topo) {
            if (pot[u] == kInf)
                continue;
            for (int a : out_[u]) {
                const Arc &arc = arcs_[a];
                if (arc.cap > 0 && pot[u] + arc.cost < pot[arc.to])
                    pot[arc.to] = pot[u] + arc.cost;
            }
        }

        std::int64_t routed = 0;
        std::uint64_t paths = 0;
        std::vector<std::int64_t> dist(n);
        std::vector<int> via(n);
        std::vector<int> settled;
        using Entry = std::pair<std::int64_t, int>;
        std::vector<Entry> heap;
        const std::greater<Entry> later;
        for (;;) {
            // Nodes the empty flow cannot reach from s never become
            // reachable: an augmentation only adds reverse arcs between
            // nodes on its path.
            std::fill(dist.begin(), dist.end(), kInf);
            std::fill(via.begin(), via.end(), -1);
            settled.clear();
            heap.clear();
            dist[s] = 0;
            heap.push_back({0, s});
            while (!heap.empty()) {
                std::pop_heap(heap.begin(), heap.end(), later);
                const auto [d, u] = heap.back();
                heap.pop_back();
                if (d > dist[u])
                    continue;
                settled.push_back(u);
                if (u == t)
                    break;
                for (int a : out_[u]) {
                    const Arc &arc = arcs_[a];
                    if (arc.cap <= 0)
                        continue;
                    const std::int64_t nd =
                        d + arc.cost + pot[u] - pot[arc.to];
                    if (nd < dist[arc.to]) {
                        dist[arc.to] = nd;
                        via[arc.to] = a;
                        heap.push_back({nd, arc.to});
                        std::push_heap(heap.begin(), heap.end(), later);
                    }
                }
            }
            if (dist[t] == kInf)
                break;
            for (int v : settled)
                pot[v] += dist[v] - dist[t];
            std::int64_t push = kInf;
            for (int v = t; v != s; v = arcs_[via[v] ^ 1].to)
                push = std::min(push, arcs_[via[v]].cap);
            for (int v = t; v != s; v = arcs_[via[v] ^ 1].to) {
                arcs_[via[v]].cap -= push;
                arcs_[via[v] ^ 1].cap += push;
            }
            routed += push;
            ++paths;
        }
        return {routed, paths};
    }

  private:
    struct Arc
    {
        int to = 0;
        std::int64_t cap = 0;
        std::int64_t cost = 0;
    };

    std::vector<Arc> arcs_;
    std::vector<std::vector<int>> out_;
};

/** Scaled cost of streaming one chunk of @p w from layer @p l. */
std::int64_t
chunkCost(const WindowNetwork &net, const WindowWeight &w, std::int32_t l)
{
    const std::int64_t dist = w.consumer - l;
    return kFlowCostScale * (dist - 1 - net.lambdaS) +
           kFlowCostScale * net.muS * dist / w.chunks;
}

/** ceil(a / kFlowCostScale) for any sign of @p a. */
std::int64_t
ceilScaled(std::int64_t a)
{
    return a >= 0 ? (a + kFlowCostScale - 1) / kFlowCostScale
                  : -(-a / kFlowCostScale);
}

/** The exact window objective of @p x (solveWindow). */
std::int64_t
windowObjective(const WindowNetwork &net, const WindowPlan &x)
{
    FM_ASSERT(x.size() == net.weights.size(), "plan/window size mismatch");
    std::int64_t obj = 0;
    for (std::size_t k = 0; k < net.weights.size(); ++k) {
        const auto &w = net.weights[k];
        FM_ASSERT(x[k].size() == w.cands.size(),
                  "plan/candidate size mismatch");
        std::int64_t streamed = 0;
        std::int32_t z = w.consumer;
        for (std::size_t j = 0; j < w.cands.size(); ++j) {
            streamed += x[k][j];
            obj += x[k][j] * (w.consumer - w.cands[j] - 1);
            if (x[k][j] > 0)
                z = std::min(z, w.cands[j]);
        }
        obj += net.lambdaS * (w.chunks - streamed);
        if (!w.cands.empty())
            obj -= net.muS * z;
    }
    return obj;
}

} // namespace

const char *
solveStatusName(SolveStatus status)
{
    return status == SolveStatus::Optimal ? "OPTIMAL" : "FEASIBLE";
}

WindowSolution
solveWindow(const WindowNetwork &net)
{
    const std::int32_t first = net.firstLayer;
    const std::int32_t end = net.endLayer;
    const int span = std::max(end - first, 0);
    const auto &headroom = net.headroom;
    const auto &residual = net.residual;

    // Nodes: source, sink, line nodes first..end, B_l for l in
    // [first, end), E_k per weight.
    const int s = 0, t = 1;
    auto line = [&](std::int32_t p) { return 2 + (p - first); };
    auto bypass = [&](std::int32_t l) { return 3 + span + (l - first); };
    auto entry = [&](std::size_t k) {
        return 3 + 2 * span + static_cast<int>(k);
    };
    Network g(3 + 2 * span + static_cast<int>(net.weights.size()));

    // C2 as line arcs: shifting the in-flight lower bounds out leaves
    // capacity H_p on arc p -> p+1 and a supply of H_p - H_{p-1} at
    // node p, so the flow that streams nothing is feasible.
    std::int64_t supply = 0;
    for (std::int32_t p = first; p <= end && span > 0; ++p) {
        const std::int64_t here = p < end ? headroom[p] : 0;
        const std::int64_t before = p > first ? headroom[p - 1] : 0;
        if (here > before) {
            g.addArc(s, line(p), here - before, 0);
            supply += here - before;
        } else if (here < before) {
            g.addArc(line(p), t, before - here, 0);
        }
    }
    for (std::int32_t p = first; p < end; ++p) {
        g.addArc(line(p), line(p + 1), headroom[p], 0);
        if (residual[p] > 0) // C3
            g.addArc(line(p), bypass(p), residual[p], 0);
    }
    std::vector<std::vector<int>> x_arc(net.weights.size());
    std::int64_t constant = 0;
    for (std::size_t k = 0; k < net.weights.size(); ++k) {
        const auto &w = net.weights[k];
        constant += net.lambdaS * w.chunks;
        if (w.cands.empty())
            continue;
        constant -= net.muS * w.consumer;
        for (auto l : w.cands) {
            FM_ASSERT(l >= first && l < w.consumer && w.consumer < end,
                      "candidate layer ", l, " outside its window");
            // A chunk on a bypass of positive cost would cost less on
            // the line, which has room for it, so no min-cost flow uses
            // the arc; leaving it out changes neither flow nor bound.
            const std::int64_t cost = chunkCost(net, w, l);
            x_arc[k].push_back(
                cost > 0 ? -1
                         : g.addArc(bypass(l), entry(k),
                                    std::min(w.chunks, residual[l]),
                                    cost));
        }
        g.addArc(entry(k), line(w.consumer), w.chunks, 0); // C0
    }

    // Topological order: every arc runs from a lower layer to a higher
    // one, and E_k sits just before its consumer's line node.
    std::vector<std::vector<int>> entries_at(span + 1);
    for (std::size_t k = 0; k < net.weights.size(); ++k) {
        if (!net.weights[k].cands.empty())
            entries_at[net.weights[k].consumer - first].push_back(entry(k));
    }
    std::vector<int> topo{s};
    for (std::int32_t p = first; p <= end && span > 0; ++p) {
        for (int e : entries_at[p - first])
            topo.push_back(e);
        topo.push_back(line(p));
        if (p < end)
            topo.push_back(bypass(p));
    }
    topo.push_back(t);

    WindowSolution sol;
    auto [routed, paths] = g.minCostFlow(s, t, topo);
    FM_ASSERT(routed == supply, "window flow routed ", routed, " of ",
              supply, " units");
    sol.augmentations = paths;

    sol.x.resize(net.weights.size());
    for (std::size_t k = 0; k < net.weights.size(); ++k) {
        const auto &w = net.weights[k];
        for (std::size_t j = 0; j < x_arc[k].size(); ++j) {
            const std::int64_t v = x_arc[k][j] < 0 ? 0 : g.flow(x_arc[k][j]);
            sol.x[k].push_back(v);
            sol.flowCost += v * chunkCost(net, w, w.cands[j]);
        }
    }
    sol.bound = constant + ceilScaled(sol.flowCost);
    sol.objective = windowObjective(net, sol.x);
    FM_ASSERT(sol.bound <= sol.objective, "window bound ", sol.bound,
              " above the flow plan's objective ", sol.objective);
    sol.status = sol.objective == sol.bound ? SolveStatus::Optimal
                                            : SolveStatus::Feasible;
    return sol;
}

} // namespace flashmem::solver
