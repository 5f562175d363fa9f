#include "serving/trace_gen.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

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

std::vector<ModelRequest>
mmppTrace(const ModelMix &mix, const MmppParams &params,
          std::size_t count, std::uint64_t seed)
{
    FM_ASSERT(params.meanDwell > 0, "MMPP mean dwell must be positive");
    Rng rng(seed);
    MixSampler sampler(mix);
    std::vector<ModelRequest> out;
    out.reserve(count);
    SimTime t = 0;
    int state = 0; // start quiet
    double dwell_rate = 1.0 / toSeconds(params.meanDwell);
    SimTime switch_at = expInterArrival(rng, dwell_rate);
    while (out.size() < count) {
        double rate = state == 0 ? params.qpsLow : params.qpsHigh;
        SimTime next = t + expInterArrival(rng, rate);
        if (next >= switch_at) {
            // Memoryless: restart the arrival clock in the new state.
            t = switch_at;
            state ^= 1;
            switch_at = t + expInterArrival(rng, dwell_rate);
            continue;
        }
        t = next;
        out.push_back(makeRequest(sampler.sample(rng), t));
    }
    return out;
}

std::vector<ModelRequest>
diurnalTrace(const ModelMix &mix, const DiurnalParams &params,
             std::size_t count, std::uint64_t seed)
{
    FM_ASSERT(params.period > 0, "diurnal period must be positive");
    FM_ASSERT(params.amplitude >= 0.0 && params.amplitude < 1.0,
              "diurnal amplitude must be in [0, 1)");
    Rng rng(seed);
    MixSampler sampler(mix);
    std::vector<ModelRequest> out;
    out.reserve(count);
    double max_rate = params.baseQps * (1.0 + params.amplitude);
    double period_s = toSeconds(params.period);
    SimTime t = 0;
    while (out.size() < count) {
        // Lewis-Shedler thinning of the dominating homogeneous process.
        t += expInterArrival(rng, max_rate);
        double phase = 2.0 * M_PI * toSeconds(t) / period_s;
        double rate = params.baseQps *
                      (1.0 + params.amplitude * std::sin(phase));
        if (rng.uniform() * max_rate <= rate)
            out.push_back(makeRequest(sampler.sample(rng), t));
    }
    return out;
}

std::vector<ModelRequest>
closedLoopTrace(const ModelMix &mix, const ClosedLoopParams &params,
                const std::map<models::ModelId, SimTime>
                    &service_estimates,
                std::size_t count, std::uint64_t seed)
{
    FM_ASSERT(params.users > 0, "closed loop needs at least one user");
    FM_ASSERT(params.meanThink >= 0, "negative think time");
    Rng rng(seed);
    MixSampler sampler(mix);
    double think_rate = params.meanThink > 0
                            ? 1.0 / toSeconds(params.meanThink)
                            : 0.0;

    // Each user issues its next request at issue_at[u]; the serialized
    // server drains them FIFO against the calibrated estimates.
    std::vector<SimTime> issue_at(
        static_cast<std::size_t>(params.users), 0);
    std::vector<ModelRequest> out;
    out.reserve(count);
    SimTime server_free = 0;
    while (out.size() < count) {
        // Earliest issuer next; user index breaks ties.
        std::size_t u = 0;
        for (std::size_t i = 1; i < issue_at.size(); ++i) {
            if (issue_at[i] < issue_at[u])
                u = i;
        }
        SimTime arrival = issue_at[u];
        const auto &entry = sampler.sample(rng);
        out.push_back(makeRequest(entry, arrival));

        auto est = service_estimates.find(entry.model);
        FM_ASSERT(est != service_estimates.end(),
                  "closed loop: no service estimate for mix model");
        SimTime completion =
            std::max(server_free, arrival) + est->second;
        server_free = completion;
        SimTime think = think_rate > 0.0
                            ? expInterArrival(rng, think_rate)
                            : 0;
        issue_at[u] = completion + think;
    }
    // Always advancing the globally earliest issuer keeps arrivals
    // nondecreasing without a sort.
    return out;
}

// ------------------------------------------------------------- replay

namespace {

constexpr const char *kCsvHeader = "arrival_ns,model,priority,slo_ns";

/** Split one CSV line on commas (no quoting — fields never contain
 * commas in this format). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

/** Extract the value of @p key from a single-line JSON object; returns
 * the raw token (string values without quotes). Empty if absent. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t colon = line.find(':', at + needle.size());
    FM_ASSERT(colon != std::string::npos, "malformed JSONL line: ",
              line);
    std::size_t v = line.find_first_not_of(" \t", colon + 1);
    FM_ASSERT(v != std::string::npos, "malformed JSONL line: ", line);
    if (line[v] == '"') {
        std::size_t close = line.find('"', v + 1);
        FM_ASSERT(close != std::string::npos,
                  "unterminated string in JSONL line: ", line);
        return line.substr(v + 1, close - v - 1);
    }
    std::size_t end = line.find_first_of(",}", v);
    FM_ASSERT(end != std::string::npos, "malformed JSONL line: ", line);
    std::string token = line.substr(v, end - v);
    while (!token.empty() &&
           (token.back() == ' ' || token.back() == '\t'))
        token.pop_back();
    return token;
}

/** Parse a decimal integer, failing loudly (no exceptions) on junk,
 * trailing characters, or overflow. */
long long
parseInt(const std::string &token, const char *what)
{
    FM_ASSERT(!token.empty(), "missing ", what, " in trace");
    std::size_t i = 0;
    bool negative = token[0] == '-';
    if (negative)
        i = 1;
    FM_ASSERT(i < token.size(), "malformed ", what, ": ", token);
    long long v = 0;
    for (; i < token.size(); ++i) {
        char c = token[i];
        FM_ASSERT(c >= '0' && c <= '9', "malformed ", what, ": ",
                  token);
        FM_ASSERT(v <= (std::numeric_limits<long long>::max() -
                        (c - '0')) /
                           10,
                  what, " overflows: ", token);
        v = v * 10 + (c - '0');
    }
    return negative ? -v : v;
}

SimTime
parseSimTime(const std::string &token, const char *what)
{
    long long v = parseInt(token, what);
    FM_ASSERT(v >= 0, what, " must be non-negative: ", token);
    return static_cast<SimTime>(v);
}

int
parsePriority(const std::string &token)
{
    long long v = parseInt(token, "priority");
    FM_ASSERT(v >= std::numeric_limits<int>::min() &&
                  v <= std::numeric_limits<int>::max(),
              "priority out of range: ", token);
    return static_cast<int>(v);
}

} // namespace

std::vector<ModelRequest>
parseCsvTrace(std::istream &in)
{
    std::string line;
    FM_ASSERT(std::getline(in, line), "empty CSV trace");
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    FM_ASSERT(line == kCsvHeader, "CSV trace must start with header '",
              kCsvHeader, "', got '", line, "'");
    std::vector<ModelRequest> out;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        auto fields = splitCsv(line);
        FM_ASSERT(fields.size() == 4, "CSV trace line needs 4 fields: ",
                  line);
        ModelRequest r;
        r.arrival = parseSimTime(fields[0], "arrival_ns");
        r.model = models::modelIdFromAbbr(fields[1]);
        r.priority = parsePriority(fields[2]);
        r.latencyBound = parseSimTime(fields[3], "slo_ns");
        out.push_back(r);
    }
    return out;
}

std::vector<ModelRequest>
parseJsonlTrace(std::istream &in)
{
    std::vector<ModelRequest> out;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        ModelRequest r;
        r.arrival =
            parseSimTime(jsonField(line, "arrival_ns"), "arrival_ns");
        std::string model = jsonField(line, "model");
        FM_ASSERT(!model.empty(), "missing model in JSONL line: ",
                  line);
        r.model = models::modelIdFromAbbr(model);
        std::string prio = jsonField(line, "priority");
        r.priority = prio.empty() ? 0 : parsePriority(prio);
        std::string slo = jsonField(line, "slo_ns");
        r.latencyBound = slo.empty() ? 0 : parseSimTime(slo, "slo_ns");
        out.push_back(r);
    }
    return out;
}

std::vector<ModelRequest>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    FM_ASSERT(in.good(), "cannot open trace file ", path);
    auto dot = path.rfind('.');
    std::string ext =
        dot == std::string::npos ? "" : path.substr(dot + 1);
    if (ext == "csv")
        return parseCsvTrace(in);
    if (ext == "jsonl")
        return parseJsonlTrace(in);
    FM_FATAL("unknown trace extension '", ext, "' (want .csv/.jsonl): ",
             path);
}

void
writeCsvTrace(std::ostream &out,
              const std::vector<ModelRequest> &trace)
{
    out << kCsvHeader << "\n";
    for (const auto &r : trace) {
        out << r.arrival << ',' << models::modelSpec(r.model).abbr
            << ',' << r.priority << ',' << r.latencyBound << "\n";
    }
}

void
writeJsonlTrace(std::ostream &out,
                const std::vector<ModelRequest> &trace)
{
    for (const auto &r : trace) {
        out << "{\"arrival_ns\": " << r.arrival << ", \"model\": \""
            << models::modelSpec(r.model).abbr
            << "\", \"priority\": " << r.priority
            << ", \"slo_ns\": " << r.latencyBound << "}\n";
    }
}

} // namespace flashmem::serving
