// Deterministic, fast pseudo-random number generation.
//
// Every stochastic component in the simulator and the experiment harness
// takes an explicit seed so runs are reproducible bit-for-bit. We use
// xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, which is the
// recommended seeding procedure and avoids correlated low-entropy seeds.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

namespace sturgeon {

/// SplitMix64 step; used for seeding and as a cheap hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derive a statistically independent child seed from a root seed and a
/// stream label (node index, component id, ...). Two chained SplitMix64
/// steps decorrelate even adjacent (root, stream) pairs, unlike the
/// ad-hoc XOR-with-constant derivations this replaces. The same
/// (root, stream) always yields the same child seed, which is what makes
/// cluster runs bit-reproducible across thread counts: every node's
/// generator depends only on the cluster seed and its own index.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream);

/// Convenience for a second derivation level, e.g.
/// derive_seed(root, node, component).
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream,
                          std::uint64_t substream);

/// 64-bit hash of `s` that no toolchain can change, for seeds drawn from a
/// name (a profiling campaign per LS/BE set): MurmurHash2 (64-bit) with
/// seed 0xc70f6907 over little-endian 8-byte words. It is the function
/// libstdc++'s std::hash<std::string> computes on a 64-bit little-endian
/// target, so seeds and digests taken with that hash stay as they were.
std::uint64_t stable_hash(std::string_view s);

/// Log-space parameters of a lognormal: exp(mu + sigma * N(0, 1)).
struct LognormalParams {
  double mu = 0.0;
  double sigma = 0.0;
};

/// The lognormal whose *mean* is `mean` (> 0) and whose coefficient of
/// variation is `cv` (> 0). Rng::lognormal_mean_cv draws through it;
/// callers that draw many times from one distribution compute it once.
LognormalParams lognormal_params(double mean, double cv);

/// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5357524745ULL);

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  bool bernoulli(double p);

  /// Exponential with the given rate (1/mean); rate must be > 0.
  double exponential(double rate);

  /// Standard normal via Box-Muller (cached spare value).
  double normal();
  double normal(double mean, double stddev);

  /// Lognormal such that the *mean* of the distribution is `mean` and the
  /// coefficient of variation is `cv`. Useful for service-time draws where
  /// we reason in terms of mean demand. cv <= 0 returns `mean` exactly
  /// and draws nothing.
  double lognormal_mean_cv(double mean, double cv);

  /// One draw from the lognormal with log-space parameters `p`.
  double lognormal(const LognormalParams& p);

  /// Poisson-distributed count (Knuth for small means, normal approx for
  /// large means).
  std::uint64_t poisson(double mean);

  /// Derive an independent child generator (stable given the label).
  Rng fork(std::uint64_t label) const;

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace sturgeon
