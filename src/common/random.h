// Deterministic random sources for workload generation and failure injection.
//
// Everything in the reproduction that is "random" draws from an explicitly seeded Rng so
// experiments are replayable bit-for-bit. Includes the Zipf sampler the KV workloads use
// (datacenter key popularity is famously Zipfian) and exponential inter-arrivals for
// open-loop clients.

#ifndef SRC_COMMON_RANDOM_H_
#define SRC_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace demi {

// splitmix64: a full-avalanche 64-bit mix (Steele et al.), used to expand seeds
// and to hash keys.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Derives an independent seed from a run seed and a per-component salt, so the
// load generator, the server stack and each client stack draw uncorrelated streams
// from one configured seed.
inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

// xoshiro256** — tiny, fast, high-quality; good enough for workloads (not crypto).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

 private:
  std::uint64_t s_[4];
};

// Zipf(theta) sampler over [0, n) using the Gray et al. computation (as in YCSB).
// theta=0 degenerates to uniform; theta≈0.99 is the YCSB default "hot keys" skew.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t Next(Rng& rng);

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace demi

#endif  // SRC_COMMON_RANDOM_H_
