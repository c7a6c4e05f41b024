/**
 * @file
 * Order-sensitive digests over simulated results.
 */

#ifndef MOLECULE_SIM_STATS_HH
#define MOLECULE_SIM_STATS_HH

#include <cstdint>
#include <string_view>

namespace molecule::sim {

/**
 * Order-sensitive 64-bit digest (FNV-1a) over a stream of values.
 *
 * The golden-trace determinism tests fold every latency sample of a
 * scenario into a Fingerprint and compare digests across runs, seeds
 * and kernel rewrites: identical seed => identical digest, bit for bit.
 */
class Fingerprint
{
  public:
    /** Fold one 64-bit value into the digest (order matters). */
    void mix(std::uint64_t v);

    void mixDouble(double v);

    /** Fold each byte of @p bytes, in order (a name's FNV-1a hash
     * when started from a fresh digest). */
    void mixBytes(std::string_view bytes);

    std::uint64_t digest() const { return state_; }

  private:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    std::uint64_t state_ = kOffsetBasis;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_STATS_HH
