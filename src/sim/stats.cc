#include "sim/stats.hh"

#include <cstring>

namespace molecule::sim {

void
Fingerprint::mix(std::uint64_t v)
{
    // FNV-1a, one byte at a time, little-endian byte order.
    for (int shift = 0; shift < 64; shift += 8) {
        state_ ^= (v >> shift) & 0xffULL;
        state_ *= kPrime;
    }
}

void
Fingerprint::mixBytes(std::string_view bytes)
{
    for (char c : bytes) {
        state_ ^= std::uint64_t(std::uint8_t(c));
        state_ *= kPrime;
    }
}

void
Fingerprint::mixDouble(double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

} // namespace molecule::sim
