#include "task/merge.h"

#include <algorithm>
#include <cstring>

#include "task/hash_table.h"

namespace adamant {

int64_t MergeAggPartials(AggOp op, int64_t a, int64_t b) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount:
      return a + b;
    case AggOp::kMin:
      return std::min(a, b);
    case AggOp::kMax:
      return std::max(a, b);
  }
  return a;
}

Status MergeAggTables(const std::vector<AggOp>& ops, const uint8_t* partial,
                      size_t num_slots, uint8_t* dst) {
  const size_t slot_bytes = HashTableLayout::AggSlotBytes(ops.size());
  const auto key_of = [](const uint8_t* slot) {
    int32_t key;
    std::memcpy(&key, slot, sizeof(key));
    return key;
  };
  const size_t mask = num_slots - 1;
  for (size_t i = 0; i < num_slots; ++i) {
    const uint8_t* src = partial + i * slot_bytes;
    const int32_t key = key_of(src);
    if (key == HashTableLayout::kEmptyKey) continue;
    size_t slot = HashTableLayout::Hash(key) & mask;
    for (size_t probe = 0;; ++probe) {
      if (probe >= num_slots) {
        return Status::Internal("HASH_AGG merge: destination table full");
      }
      uint8_t* out = dst + slot * slot_bytes;
      if (key_of(out) == HashTableLayout::kEmptyKey) {
        std::memcpy(out, src, slot_bytes);
        break;
      }
      if (key_of(out) == key) {
        for (size_t a = 0; a < ops.size(); ++a) {
          const size_t at = HashTableLayout::kAggAccOffset + a * sizeof(int64_t);
          int64_t acc, part;
          std::memcpy(&acc, out + at, sizeof(acc));
          std::memcpy(&part, src + at, sizeof(part));
          acc = MergeAggPartials(ops[a], acc, part);
          std::memcpy(out + at, &acc, sizeof(acc));
        }
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  return Status::OK();
}

Status MergeBuildTables(const uint8_t* partial, size_t num_slots,
                        uint8_t* dst) {
  using BuildSlot = HashTableLayout::BuildSlot;
  const auto* src = reinterpret_cast<const BuildSlot*>(partial);
  auto* out = reinterpret_cast<BuildSlot*>(dst);
  const size_t mask = num_slots - 1;
  for (size_t i = 0; i < num_slots; ++i) {
    if (src[i].key == HashTableLayout::kEmptyKey) continue;
    size_t slot = HashTableLayout::Hash(src[i].key) & mask;
    for (size_t probe = 0;; ++probe) {
      if (probe >= num_slots) {
        return Status::Internal("HASH_BUILD merge: destination table full");
      }
      if (out[slot].key == HashTableLayout::kEmptyKey) {
        out[slot] = src[i];
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  return Status::OK();
}

}  // namespace adamant
