#include "util/rng.h"

#include <stdexcept>

namespace sturgeon {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  // Feed the stream label through one SplitMix64 step, mix the root in,
  // and take a second step: a low-entropy (root, stream) pair (e.g.
  // root=1, stream=0..63) still lands on well-separated states.
  std::uint64_t state = stream;
  state = splitmix64(state) ^ root;
  return splitmix64(state);
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream,
                          std::uint64_t substream) {
  return derive_seed(derive_seed(root, stream), substream);
}

std::uint64_t stable_hash(std::string_view s) {
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  const auto load = [s](std::size_t at, std::size_t n) {
    std::uint64_t v = 0;  // s[at, at + n) as a little-endian integer
    for (std::size_t i = n; i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(s[at + i]);
    }
    return v;
  };
  const auto shift_mix = [](std::uint64_t v) { return v ^ (v >> 47); };
  const std::size_t tail = s.size() % 8;
  const std::size_t body = s.size() - tail;
  std::uint64_t h = 0xc70f6907ULL ^ (s.size() * kMul);
  for (std::size_t at = 0; at < body; at += 8) {
    h ^= shift_mix(load(at, 8) * kMul) * kMul;
    h *= kMul;
  }
  if (tail != 0) {
    h ^= load(body, tail);
    h *= kMul;
  }
  return shift_mix(shift_mix(h) * kMul);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::next_below(0)");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

int Rng::uniform_int(int lo, int hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
  return lo + static_cast<int>(next_below(
                  static_cast<std::uint64_t>(hi - lo) + 1));
}

bool Rng::bernoulli(double p) { return next_double() < p; }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -std::log(u) / rate;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

LognormalParams lognormal_params(double mean, double cv) {
  const double sigma2 = std::log(1.0 + cv * cv);
  return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  if (mean <= 0.0) throw std::invalid_argument("lognormal_mean_cv: mean <= 0");
  if (cv <= 0.0) return mean;
  return lognormal(lognormal_params(mean, cv));
}

double Rng::lognormal(const LognormalParams& p) {
  return std::exp(p.mu + p.sigma * normal());
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Rng::poisson: mean < 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= next_double();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // arrival-count use case (mean is in the hundreds/thousands).
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng Rng::fork(std::uint64_t label) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 29) ^ (label * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(mix));
}

}  // namespace sturgeon
