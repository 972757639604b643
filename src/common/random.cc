#include "src/common/random.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace demi {

namespace {

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

double Zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) {
    s = SplitMix64(seed);
    seed += 0x9e3779b97f4a7c15ull;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  DEMI_CHECK(bound > 0);
  // Rejection-free multiply-shift; bias is negligible for bound << 2^64.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

bool Rng::NextBool(double p) { return NextDouble() < std::clamp(p, 0.0, 1.0); }

double Rng::NextExponential(double mean) {
  DEMI_CHECK(mean > 0.0);
  double u = NextDouble();
  if (u >= 1.0) {
    u = 0.9999999999999999;
  }
  return -mean * std::log1p(-u);
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  DEMI_CHECK(n > 0);
  DEMI_CHECK(theta >= 0.0 && theta < 1.0);
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(std::min<std::uint64_t>(n, 2), theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfGenerator::Next(Rng& rng) {
  if (theta_ == 0.0) {
    return rng.NextBelow(n_);
  }
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

}  // namespace demi
