#include "serving/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace flashmem::serving {

using multidnn::ModelRequest;

std::vector<models::ModelId>
ModelMix::distinctModels() const
{
    std::vector<models::ModelId> out;
    for (const auto &e : entries) {
        if (std::find(out.begin(), out.end(), e.model) == out.end())
            out.push_back(e.model);
    }
    return out;
}

namespace {

/** Exponential draw with mean 1/rate, in nanoseconds. */
SimTime
expInterArrival(Rng &rng, double rate_per_second)
{
    FM_ASSERT(rate_per_second > 0.0, "arrival rate must be positive");
    double u = rng.uniform(); // in [0, 1)
    double s = -std::log1p(-u) / rate_per_second;
    return seconds(s);
}

/** Validates the mix once and serves O(entries) weighted picks
 * without re-summing weights per draw (the generators sit in the
 * million-request hot loop). */
class MixSampler
{
  public:
    explicit MixSampler(const ModelMix &mix) : mix_(mix)
    {
        FM_ASSERT(!mix.entries.empty(), "empty model mix");
        for (const auto &e : mix.entries) {
            FM_ASSERT(e.weight > 0.0, "mix weights must be positive");
            total_ += e.weight;
        }
    }

    const ModelMix::Entry &
    sample(Rng &rng) const
    {
        double x = rng.uniform() * total_;
        for (const auto &e : mix_.entries) {
            x -= e.weight;
            if (x < 0.0)
                return e;
        }
        return mix_.entries.back();
    }

  private:
    const ModelMix &mix_;
    double total_ = 0.0;
};

ModelRequest
makeRequest(const ModelMix::Entry &e, SimTime arrival)
{
    return {e.model, arrival, e.priority, e.latencyBound};
}

} // namespace

std::vector<ModelRequest>
poissonTrace(const ModelMix &mix, double qps, std::size_t count,
             std::uint64_t seed)
{
    Rng rng(seed);
    MixSampler sampler(mix);
    std::vector<ModelRequest> out;
    out.reserve(count);
    SimTime t = 0;
    for (std::size_t i = 0; i < count; ++i) {
        t += expInterArrival(rng, qps);
        out.push_back(makeRequest(sampler.sample(rng), t));
    }
    return out;
}

} // namespace flashmem::serving
