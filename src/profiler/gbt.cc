#include "profiler/gbt.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace flashmem::profiler {

namespace {

/** Seed of the row-subsampling stream, so fits are reproducible. */
constexpr std::uint64_t kSubsampleSeed = 0x5eed;

} // namespace

double
GbtRegressor::Tree::predict(const std::vector<double> &x) const
{
    int idx = 0;
    while (!nodes[idx].leaf) {
        const Node &n = nodes[idx];
        idx = (x[n.feature] <= n.threshold) ? n.left : n.right;
    }
    return nodes[idx].value;
}

int
GbtRegressor::growNode(Tree &tree,
                       const std::vector<std::vector<double>> &x,
                       const std::vector<double> &residual,
                       std::vector<std::size_t> &indices, int depth)
{
    int node_id = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();

    double sum = 0.0;
    for (auto i : indices)
        sum += residual[i];
    double mean = sum / static_cast<double>(indices.size());

    auto make_leaf = [&] {
        tree.nodes[node_id].leaf = true;
        tree.nodes[node_id].value = mean;
        return node_id;
    };

    if (depth >= params_.maxDepth ||
        indices.size() <
            static_cast<std::size_t>(2 * params_.minSamplesLeaf)) {
        return make_leaf();
    }

    // Best variance-reduction split: maximize S_L^2/n_L + S_R^2/n_R.
    const std::size_t dims = x[indices[0]].size();
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = sum * sum / static_cast<double>(indices.size());
    bool found = false;

    std::vector<std::size_t> sorted = indices;
    for (std::size_t f = 0; f < dims; ++f) {
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) {
                      return x[a][f] < x[b][f];
                  });
        double left_sum = 0.0;
        for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
            left_sum += residual[sorted[k]];
            // Valid split point only between distinct feature values.
            if (x[sorted[k]][f] == x[sorted[k + 1]][f])
                continue;
            std::size_t n_left = k + 1;
            std::size_t n_right = sorted.size() - n_left;
            if (n_left < static_cast<std::size_t>(params_.minSamplesLeaf) ||
                n_right < static_cast<std::size_t>(params_.minSamplesLeaf))
                continue;
            double right_sum = sum - left_sum;
            double score =
                left_sum * left_sum / static_cast<double>(n_left) +
                right_sum * right_sum / static_cast<double>(n_right);
            if (score > best_score + 1e-12) {
                best_score = score;
                best_feature = static_cast<int>(f);
                best_threshold =
                    0.5 * (x[sorted[k]][f] + x[sorted[k + 1]][f]);
                found = true;
            }
        }
    }

    if (!found)
        return make_leaf();

    std::vector<std::size_t> left_idx, right_idx;
    for (auto i : indices) {
        if (x[i][best_feature] <= best_threshold)
            left_idx.push_back(i);
        else
            right_idx.push_back(i);
    }
    FM_ASSERT(!left_idx.empty() && !right_idx.empty(),
              "degenerate GBT split");

    tree.nodes[node_id].leaf = false;
    tree.nodes[node_id].feature = best_feature;
    tree.nodes[node_id].threshold = best_threshold;
    int left = growNode(tree, x, residual, left_idx, depth + 1);
    int right = growNode(tree, x, residual, right_idx, depth + 1);
    tree.nodes[node_id].left = left;
    tree.nodes[node_id].right = right;
    return node_id;
}

void
GbtRegressor::fit(const std::vector<std::vector<double>> &x,
                  const std::vector<double> &y)
{
    FM_ASSERT(!x.empty() && x.size() == y.size(),
              "GBT fit: bad training set (", x.size(), " rows, ",
              y.size(), " labels)");
    const std::size_t dims = x[0].size();
    FM_ASSERT(dims > 0, "GBT fit: empty feature rows");
    for (const auto &row : x)
        FM_ASSERT(row.size() == dims, "GBT fit: ragged feature matrix");
    feature_count_ = dims;

    trees_.clear();
    base_prediction_ =
        std::accumulate(y.begin(), y.end(), 0.0) /
        static_cast<double>(y.size());

    std::vector<double> current(y.size(), base_prediction_);
    std::vector<double> residual(y.size());
    Rng rng(kSubsampleSeed);

    for (int t = 0; t < params_.trees; ++t) {
        for (std::size_t i = 0; i < y.size(); ++i)
            residual[i] = y[i] - current[i];

        // Row subsampling for stochastic boosting.
        std::vector<std::size_t> indices;
        indices.reserve(y.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
            if (params_.subsample >= 1.0 ||
                rng.uniform() < params_.subsample)
                indices.push_back(i);
        }
        if (indices.size() <
            static_cast<std::size_t>(2 * params_.minSamplesLeaf)) {
            indices.resize(y.size());
            std::iota(indices.begin(), indices.end(), 0);
        }

        Tree tree;
        growNode(tree, x, residual, indices, 0);
        for (std::size_t i = 0; i < y.size(); ++i)
            current[i] += params_.learningRate * tree.predict(x[i]);
        trees_.push_back(std::move(tree));
    }
    trained_ = true;
}

double
GbtRegressor::predict(const std::vector<double> &x) const
{
    FM_ASSERT(trained_, "GBT predict before fit");
    FM_ASSERT(x.size() == feature_count_,
              "GBT predict: feature dimension mismatch (got ",
              x.size(), ", trained on ", feature_count_, ")");
    double out = base_prediction_;
    for (const auto &tree : trees_)
        out += params_.learningRate * tree.predict(x);
    return out;
}

double
GbtRegressor::rmse(const std::vector<std::vector<double>> &x,
                   const std::vector<double> &y) const
{
    FM_ASSERT(!x.empty(), "GBT rmse: empty evaluation set");
    FM_ASSERT(x.size() == y.size(), "GBT rmse: ", x.size(), " rows vs ",
              y.size(), " labels");
    double se = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double d = predict(x[i]) - y[i];
        se += d * d;
    }
    return std::sqrt(se / static_cast<double>(x.size()));
}

double
GbtRegressor::r2(const std::vector<std::vector<double>> &x,
                 const std::vector<double> &y) const
{
    FM_ASSERT(!x.empty(), "GBT r2: empty evaluation set");
    FM_ASSERT(x.size() == y.size(), "GBT r2: ", x.size(), " rows vs ",
              y.size(), " labels");
    double mean =
        std::accumulate(y.begin(), y.end(), 0.0) /
        static_cast<double>(y.size());
    double ss_res = 0.0, ss_tot = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double d = predict(x[i]) - y[i];
        ss_res += d * d;
        double m = y[i] - mean;
        ss_tot += m * m;
    }
    return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
}

} // namespace flashmem::profiler
