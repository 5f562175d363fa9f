#include "solver/model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::solver {

VarId
CpModel::newIntVar(std::int64_t lb, std::int64_t ub, std::string name)
{
    FM_ASSERT(lb <= ub, "empty initial domain for '", name, "': [", lb,
              ", ", ub, "]");
    lbs_.push_back(lb);
    ubs_.push_back(ub);
    names_.push_back(std::move(name));
    varConstraints_.emplace_back();
    varImplications_.emplace_back();
    return static_cast<VarId>(lbs_.size()) - 1;
}

void
CpModel::checkVar(VarId v) const
{
    FM_ASSERT(v >= 0 && v < static_cast<VarId>(lbs_.size()),
              "bad variable id ", v);
}

void
CpModel::checkTerms(const std::vector<LinearTerm> &terms) const
{
    for (const auto &t : terms)
        checkVar(t.var);
}

void
CpModel::addLinear(std::vector<LinearTerm> terms, std::int64_t lo,
                   std::int64_t hi)
{
    FM_ASSERT(lo <= hi, "addLinear with lo > hi");
    checkTerms(terms);
    const auto ci = static_cast<std::int32_t>(constraints_.size());
    for (const auto &t : terms) {
        auto &list = varConstraints_[t.var];
        // Guard against a variable appearing twice in one constraint:
        // one watch entry is enough.
        if (list.empty() || list.back() != ci)
            list.push_back(ci);
    }
    constraints_.push_back({std::move(terms), lo, hi});
}

void
CpModel::addLessOrEqual(std::vector<LinearTerm> terms, std::int64_t hi)
{
    addLinear(std::move(terms),
              std::numeric_limits<std::int64_t>::min() / 4, hi);
}

void
CpModel::addGreaterOrEqual(std::vector<LinearTerm> terms, std::int64_t lo)
{
    addLinear(std::move(terms), lo,
              std::numeric_limits<std::int64_t>::max() / 4);
}

void
CpModel::addEquality(std::vector<LinearTerm> terms, std::int64_t value)
{
    addLinear(std::move(terms), value, value);
}

void
CpModel::addImplicationGeLe(VarId x, std::int64_t x_threshold, VarId y,
                            std::int64_t y_bound)
{
    checkVar(x);
    checkVar(y);
    const auto ii = static_cast<std::int32_t>(implications_.size());
    varImplications_[x].push_back(ii);
    if (y != x)
        varImplications_[y].push_back(ii);
    implications_.push_back({x, x_threshold, y, y_bound});
}

void
CpModel::minimize(std::vector<LinearTerm> objective)
{
    checkTerms(objective);
    objective_ = std::move(objective);
}

const std::vector<std::int32_t> &
CpModel::constraintsWatching(VarId v) const
{
    checkVar(v);
    return varConstraints_[v];
}

const std::vector<std::int32_t> &
CpModel::implicationsWatching(VarId v) const
{
    checkVar(v);
    return varImplications_[v];
}

bool
CpModel::satisfiedBy(const std::vector<std::int64_t> &values) const
{
    if (values.size() != lbs_.size())
        return false;
    for (std::size_t v = 0; v < lbs_.size(); ++v) {
        if (values[v] < lbs_[v] || values[v] > ubs_[v])
            return false;
    }
    for (const auto &c : constraints_) {
        std::int64_t s = 0;
        for (const auto &t : c.terms)
            s += t.coef * values[t.var];
        if (s < c.lo || s > c.hi)
            return false;
    }
    for (const auto &imp : implications_) {
        if (values[imp.x] >= imp.xThreshold && values[imp.y] > imp.yBound)
            return false;
    }
    return true;
}

namespace {

/** FNV-1a, 64-bit. */
struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mix(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }

    void mixI64(std::int64_t x) { mix(static_cast<std::uint64_t>(x)); }
};

} // namespace

bool
CpModel::entailedAtDomains(const LinearConstraint &c) const
{
    std::int64_t smin = 0, smax = 0;
    for (const auto &t : c.terms) {
        const std::int64_t a = t.coef * lbs_[t.var];
        const std::int64_t b = t.coef * ubs_[t.var];
        smin += std::min(a, b);
        smax += std::max(a, b);
    }
    return smin >= c.lo && smax <= c.hi;
}

std::uint64_t
CpModel::canonicalFingerprint() const
{
    /** Stands in for the bounds of an entailed row ("ENTAILED"). */
    constexpr std::uint64_t kEntailedRow = 0x454E5441494C4544ull;

    Fnv1a f;
    f.mix(lbs_.size());
    for (std::size_t v = 0; v < lbs_.size(); ++v) {
        f.mixI64(lbs_[v]);
        f.mixI64(ubs_[v]);
    }
    f.mix(constraints_.size());
    for (const auto &c : constraints_) {
        if (entailedAtDomains(c)) {
            f.mix(kEntailedRow);
        } else {
            f.mixI64(c.lo);
            f.mixI64(c.hi);
        }
        f.mix(c.terms.size());
        for (const auto &t : c.terms) {
            f.mix(static_cast<std::uint64_t>(t.var));
            f.mixI64(t.coef);
        }
    }
    f.mix(implications_.size());
    for (const auto &imp : implications_) {
        f.mix(static_cast<std::uint64_t>(imp.x));
        f.mixI64(imp.xThreshold);
        f.mix(static_cast<std::uint64_t>(imp.y));
        f.mixI64(imp.yBound);
    }
    f.mix(objective_.size());
    for (const auto &t : objective_) {
        f.mix(static_cast<std::uint64_t>(t.var));
        f.mixI64(t.coef);
    }
    return f.h;
}

} // namespace flashmem::solver
