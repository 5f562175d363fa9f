/**
 * @file
 * Gradient-boosted regression trees, from scratch.
 *
 * The paper trains an XGBoost regressor on profiled kernels to predict
 * latency under varying inline-load volume (Section 4.2, Figure 4).
 * This is a dependency-free equivalent: squared-loss gradient boosting
 * over depth-limited CART trees with variance-reduction splits.
 */

#ifndef FLASHMEM_PROFILER_GBT_HH
#define FLASHMEM_PROFILER_GBT_HH

#include <cstddef>
#include <vector>

namespace flashmem::profiler {

/** Boosting hyper-parameters. */
struct GbtParams
{
    int trees = 120;
    int maxDepth = 4;
    double learningRate = 0.12;
    int minSamplesLeaf = 3;
    /** Row subsample fraction per tree (stochastic boosting). */
    double subsample = 0.85;
};

/** Squared-loss gradient-boosted tree ensemble. */
class GbtRegressor
{
  public:
    explicit GbtRegressor(GbtParams params = {}) : params_(params) {}

    /**
     * Fit on a dense feature matrix (row-major samples). All rows must
     * share the same dimensionality.
     */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y);

    /** Predict one sample; fatal if called before fit() or when
     * @p x's dimensionality differs from the training matrix (tree
     * traversal would index out of bounds otherwise). */
    double predict(const std::vector<double> &x) const;

    bool trained() const { return trained_; }
    std::size_t treeCount() const { return trees_.size(); }
    /** Feature dimensionality the ensemble was fitted on. */
    // FMLINT(allow:test-only-api) tests observe the width fit() recorded
    std::size_t featureCount() const { return feature_count_; }

    /** Coefficient of determination (R^2) over a labelled set; fatal
     * on an empty set, mismatched row/label counts, or ragged rows. */
    double r2(const std::vector<std::vector<double>> &x,
              const std::vector<double> &y) const;

  private:
    struct Node
    {
        bool leaf = true;
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };

    struct Tree
    {
        std::vector<Node> nodes;
        double predict(const std::vector<double> &x) const;
    };

    /** Recursively grow one CART tree over the given sample indices. */
    int growNode(Tree &tree, const std::vector<std::vector<double>> &x,
                 const std::vector<double> &residual,
                 std::vector<std::size_t> &indices, int depth);

    GbtParams params_;
    bool trained_ = false;
    std::size_t feature_count_ = 0;
    double base_prediction_ = 0.0;
    std::vector<Tree> trees_;
};

} // namespace flashmem::profiler

#endif // FLASHMEM_PROFILER_GBT_HH
