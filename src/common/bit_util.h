#ifndef ADAMANT_COMMON_BIT_UTIL_H_
#define ADAMANT_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace adamant::bit_util {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr size_t WordsForBits(size_t bits) { return (bits + 63) / 64; }

/// Number of bytes needed to hold `bits` bits, rounded to 64-bit words.
/// ADAMANT bitmaps are always word-padded so kernels can operate word-wise.
constexpr size_t BytesForBits(size_t bits) { return WordsForBits(bits) * 8; }

constexpr size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

constexpr size_t RoundUp(size_t value, size_t factor) {
  return CeilDiv(value, factor) * factor;
}

constexpr bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v must be >= 1).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  return v <= 1 ? 1 : uint64_t{1} << (64 - std::countl_zero(v - 1));
}

/// Population count over the first `num_bits` bits of a word-padded bitmap.
size_t CountSetBits(const uint64_t* bitmap, size_t num_bits);

}  // namespace adamant::bit_util

#endif  // ADAMANT_COMMON_BIT_UTIL_H_
