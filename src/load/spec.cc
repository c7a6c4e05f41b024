#include "load/spec.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace molecule::load {

const char *
toString(ArrivalKind k)
{
    switch (k) {
    case ArrivalKind::Poisson:
        return "poisson";
    case ArrivalKind::Mmpp:
        return "mmpp";
    case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

double
TraceSpec::expectedArrivals() const
{
    double rate = ratePerSecond;
    if (arrival == ArrivalKind::Mmpp) {
        // Time-weighted mean of the two state rates.
        const double base = meanDwellBase.toSeconds();
        const double burst = meanDwellBurst.toSeconds();
        if (base + burst > 0.0)
            rate = ratePerSecond * (base + burstFactor * burst) /
                   (base + burst);
    }
    return rate * duration.toSeconds();
}

namespace {

/** Shortest-exact double form (%.17g round-trips IEEE doubles). */
std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Parse "key=value"; @retval false when no '=' is present. */
bool
splitKv(const std::string &tok, std::string &key, std::string &val)
{
    const auto eq = tok.find('=');
    if (eq == std::string::npos)
        return false;
    key = tok.substr(0, eq);
    val = tok.substr(eq + 1);
    return true;
}

core::Expected<ArrivalKind>
parseKind(const std::string &s)
{
    for (ArrivalKind k : {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                          ArrivalKind::Diurnal}) {
        if (s == toString(k))
            return k;
    }
    return core::Error(core::Errc::InvalidArgument,
                       "unknown arrival kind '" + s + "'");
}

} // namespace

std::string
TraceSpec::serialize() const
{
    std::ostringstream out;
    out << "trace-spec v1 seed=" << seed
        << " rate=" << fmtDouble(ratePerSecond)
        << " arrival=" << toString(arrival) << " dur=" << duration.raw()
        << " burst=" << fmtDouble(burstFactor)
        << " dwell-base=" << meanDwellBase.raw()
        << " dwell-burst=" << meanDwellBurst.raw()
        << " diurnal-amp=" << fmtDouble(diurnalAmplitude)
        << " diurnal-period=" << diurnalPeriod.raw() << "\n";
    for (const auto &fn : functions)
        out << "fn name=" << fn << "\n";
    for (const auto &t : tenants)
        out << "tenant share=" << fmtDouble(t.share)
            << " zipf=" << fmtDouble(t.zipfExponent)
            << " salt=" << t.permuteSalt << " name=" << t.name << "\n";
    return out.str();
}

core::Expected<TraceSpec>
TraceSpec::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return core::Error(core::Errc::InvalidArgument, "empty spec");

    std::istringstream header(line);
    std::string word;
    header >> word;
    std::string version;
    header >> version;
    if (word != "trace-spec" || version != "v1")
        return core::Error(core::Errc::InvalidArgument,
                           "bad spec header: " + line);

    TraceSpec spec;
    std::string key, val;
    while (header >> word) {
        if (!splitKv(word, key, val))
            return core::Error(core::Errc::InvalidArgument,
                               "bad token '" + word + "'");
        if (key == "seed") {
            spec.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "rate") {
            spec.ratePerSecond = std::stod(val);
        } else if (key == "arrival") {
            auto kind = parseKind(val);
            if (!kind.ok())
                return kind.error();
            spec.arrival = kind.value();
        } else if (key == "dur") {
            spec.duration = sim::SimTime(std::stoll(val));
        } else if (key == "burst") {
            spec.burstFactor = std::stod(val);
        } else if (key == "dwell-base") {
            spec.meanDwellBase = sim::SimTime(std::stoll(val));
        } else if (key == "dwell-burst") {
            spec.meanDwellBurst = sim::SimTime(std::stoll(val));
        } else if (key == "diurnal-amp") {
            spec.diurnalAmplitude = std::stod(val);
        } else if (key == "diurnal-period") {
            spec.diurnalPeriod = sim::SimTime(std::stoll(val));
        } else {
            return core::Error(core::Errc::InvalidArgument,
                               "unknown key '" + key + "'");
        }
    }

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream toks(line);
        toks >> word;
        if (word == "fn") {
            toks >> word;
            if (!splitKv(word, key, val) || key != "name" || val.empty())
                return core::Error(core::Errc::InvalidArgument,
                                   "bad fn line: " + line);
            spec.functions.push_back(val);
        } else if (word == "tenant") {
            TenantSpec t;
            bool named = false;
            while (toks >> word) {
                if (!splitKv(word, key, val))
                    return core::Error(core::Errc::InvalidArgument,
                                       "bad token '" + word + "'");
                if (key == "share") {
                    t.share = std::stod(val);
                } else if (key == "zipf") {
                    t.zipfExponent = std::stod(val);
                } else if (key == "salt") {
                    t.permuteSalt =
                        std::strtoull(val.c_str(), nullptr, 10);
                } else if (key == "name") {
                    t.name = val;
                    named = true;
                } else {
                    return core::Error(core::Errc::InvalidArgument,
                                       "unknown key '" + key + "'");
                }
            }
            if (!named)
                return core::Error(core::Errc::InvalidArgument,
                                   "tenant without name: " + line);
            spec.tenants.push_back(std::move(t));
        } else {
            return core::Error(core::Errc::InvalidArgument,
                               "bad spec line: " + line);
        }
    }
    return spec;
}

} // namespace molecule::load
