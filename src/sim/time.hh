/**
 * @file
 * Simulated-time representation for the Molecule discrete-event kernel.
 *
 * Simulated time is a signed 64-bit count of nanoseconds. A strong type
 * (rather than a raw integer or std::chrono duration) keeps hardware cost
 * models honest: wall-clock time never mixes with simulated time, and the
 * unit is fixed at one place.
 */

#ifndef MOLECULE_SIM_TIME_HH
#define MOLECULE_SIM_TIME_HH

#include <compare>
#include <cstdint>
#include <cstdio>
#include <string>

namespace molecule::sim {

/**
 * A point in (or span of) simulated time, in nanoseconds.
 *
 * SimTime is used both as an absolute timestamp (since simulation start)
 * and as a duration; the arithmetic closure below is the same for both
 * uses, and experiments only ever subtract timestamps taken from the same
 * simulation, so a separate duration type would add noise without safety.
 */
class SimTime
{
  public:
    constexpr SimTime() = default;

    /** Construct from a raw nanosecond count. */
    constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

    static constexpr SimTime
    nanoseconds(std::int64_t v)
    {
        return SimTime(v);
    }

    static constexpr SimTime
    microseconds(std::int64_t v)
    {
        return SimTime(v * 1000);
    }

    static constexpr SimTime
    milliseconds(std::int64_t v)
    {
        return SimTime(v * 1000 * 1000);
    }

    static constexpr SimTime
    seconds(std::int64_t v)
    {
        return SimTime(v * 1000 * 1000 * 1000);
    }

    /** Construct from a fractional microsecond count (cost models). */
    static constexpr SimTime
    fromMicroseconds(double us)
    {
        return SimTime(static_cast<std::int64_t>(us * 1e3));
    }

    /** Construct from a fractional millisecond count (cost models). */
    static constexpr SimTime
    fromMilliseconds(double ms)
    {
        return SimTime(static_cast<std::int64_t>(ms * 1e6));
    }

    /** Construct from a fractional second count (cost models). */
    static constexpr SimTime
    fromSeconds(double s)
    {
        return SimTime(static_cast<std::int64_t>(s * 1e9));
    }

    constexpr std::int64_t raw() const { return ns_; }
    constexpr double toMicroseconds() const { return double(ns_) / 1e3; }
    constexpr double toMilliseconds() const { return double(ns_) / 1e6; }
    constexpr double toSeconds() const { return double(ns_) / 1e9; }

    constexpr auto operator<=>(const SimTime &) const = default;

    constexpr SimTime
    operator+(SimTime o) const
    {
        return SimTime(ns_ + o.ns_);
    }

    constexpr SimTime
    operator-(SimTime o) const
    {
        return SimTime(ns_ - o.ns_);
    }

    constexpr SimTime &
    operator+=(SimTime o)
    {
        ns_ += o.ns_;
        return *this;
    }

    constexpr SimTime &
    operator-=(SimTime o)
    {
        ns_ -= o.ns_;
        return *this;
    }

    constexpr SimTime
    operator*(double k) const
    {
        return SimTime(static_cast<std::int64_t>(double(ns_) * k));
    }

    constexpr SimTime
    operator/(double k) const
    {
        return SimTime(static_cast<std::int64_t>(double(ns_) / k));
    }

    /** Largest representable time; used as an "infinite" deadline. */
    static constexpr SimTime
    max()
    {
        return SimTime(INT64_MAX);
    }

    /**
     * Render as a human-readable string with an auto-selected unit
     * (e.g. "53.0ms", "25.4us"). Intended for logs and bench tables.
     */
    std::string
    toString() const
    {
        char buf[32];
        double v = double(ns_);
        const char *unit = "ns";
        if (ns_ >= 1000000000 || ns_ <= -1000000000) {
            v /= 1e9;
            unit = "s";
        } else if (ns_ >= 1000000 || ns_ <= -1000000) {
            v /= 1e6;
            unit = "ms";
        } else if (ns_ >= 1000 || ns_ <= -1000) {
            v /= 1e3;
            unit = "us";
        }
        std::snprintf(buf, sizeof(buf), "%.2f%s", v, unit);
        return buf;
    }

  private:
    std::int64_t ns_ = 0;
};

namespace literals {

constexpr SimTime operator""_ns(unsigned long long v)
{
    return SimTime::nanoseconds(std::int64_t(v));
}

constexpr SimTime operator""_us(unsigned long long v)
{
    return SimTime::microseconds(std::int64_t(v));
}

constexpr SimTime operator""_ms(unsigned long long v)
{
    return SimTime::milliseconds(std::int64_t(v));
}

constexpr SimTime operator""_s(unsigned long long v)
{
    return SimTime::seconds(std::int64_t(v));
}

} // namespace literals

} // namespace molecule::sim

#endif // MOLECULE_SIM_TIME_HH
