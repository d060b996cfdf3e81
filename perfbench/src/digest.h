// FNV-1a (64-bit) over a typed stream of simulated statistics. Doubles
// are hashed by bit pattern, so two episodes share a digest only when
// every statistic is bit-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace perfbench {

class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(int v) { return add(static_cast<std::int64_t>(v)); }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }

  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
