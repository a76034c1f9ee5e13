#ifndef ADAMANT_TASK_HASH_TABLE_H_
#define ADAMANT_TASK_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "common/bit_util.h"

namespace adamant {

/// Device-resident hash-table layout shared by HASH_BUILD / HASH_PROBE /
/// HASH_AGG. Open addressing with linear probing (the paper's hashing
/// technique), single global table, empty slots marked by a key sentinel.
///
/// Build/join table slot:  { int32 key, int32 payload }               (8 bytes)
/// Aggregation table slot: { int32 key, int32 pad, int64 acc[N] }  (8 + 8N bytes)
///
/// An aggregation table holds one slot per group and one int64 accumulator
/// per aggregate of its GROUP BY (N = 1 is Table I's HASH_AGG, 16 bytes).
/// Duplicate build keys occupy separate slots; probes scan the collision
/// cluster until an empty slot, emitting every match (inner-join semantics).
struct HashTableLayout {
  static constexpr int32_t kEmptyKey = INT32_MIN;

  /// The most accumulators one aggregation table (one HASH_AGG launch)
  /// holds; a GROUP BY with more aggregates lowers to several nodes.
  static constexpr size_t kMaxAccumulators = 8;

  struct BuildSlot {
    int32_t key;
    int32_t payload;
  };

  static size_t BuildTableBytes(size_t num_slots) {
    return num_slots * sizeof(BuildSlot);
  }

  /// Bytes of one aggregation slot with `num_accs` accumulators: the key,
  /// its pad, then acc[0..num_accs) at byte offset kAggAccOffset.
  static constexpr size_t kAggAccOffset = 8;
  static constexpr size_t AggSlotBytes(size_t num_accs) {
    return kAggAccOffset + num_accs * sizeof(int64_t);
  }
  static size_t AggTableBytes(size_t num_slots, size_t num_accs) {
    return num_slots * AggSlotBytes(num_accs);
  }

  /// Power-of-two slot count for <= 50% load factor.
  static size_t SlotsFor(size_t expected_keys) {
    size_t wanted = expected_keys < 8 ? 16 : expected_keys * 2;
    return bit_util::NextPowerOfTwo(wanted);
  }

  /// 32-bit finalizer (murmur3 fmix); slot = Hash(key) & (num_slots - 1).
  static uint32_t Hash(int32_t key) {
    auto h = static_cast<uint32_t>(key);
    h ^= h >> 16;
    h *= 0x85EBCA6BU;
    h ^= h >> 13;
    h *= 0xC2B2AE35U;
    h ^= h >> 16;
    return h;
  }
};

}  // namespace adamant

#endif  // ADAMANT_TASK_HASH_TABLE_H_
