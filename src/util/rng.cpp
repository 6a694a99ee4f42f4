#include "util/rng.hpp"

#include <cmath>

namespace ssbft {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::next_exp_truncated(double mean, double cap) {
  SSBFT_EXPECTS(mean > 0 && cap >= 0);
  const double u = next_double();
  const double v = -mean * std::log1p(-u);
  return v > cap ? cap : v;
}

Rng Rng::split() { return Rng{next_u64() ^ 0xd6e8feb86659fd93ULL}; }

Rng Rng::stream(std::uint64_t seed, std::uint64_t domain, std::uint64_t index) {
  // Feed (seed, domain, index) through the splitmix64 permutation in turn:
  // each argument fully avalanches before the next mixes in, so adjacent
  // seeds/indices land in unrelated streams.
  std::uint64_t x = seed;
  std::uint64_t h = splitmix64(x);
  x = h ^ domain;
  h = splitmix64(x);
  x = h ^ index;
  return Rng{splitmix64(x)};
}

}  // namespace ssbft
