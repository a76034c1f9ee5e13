#ifndef ADAMANT_TESTS_KERNEL_REFERENCE_H_
#define ADAMANT_TESTS_KERNEL_REFERENCE_H_

// Test-only per-row reference of the Task-layer kernels: every primitive and
// the fused interpreter written the plain way, one row at a time over the
// whole launch, with runtime switches on types and ops and one bit
// read-modify-write per bitmap row. Tests run a launch through it on host
// copies of its buffers and compare outputs and error messages with the
// typed kernels at every thread budget. Launch decoding (the count_in frame)
// is shared with the kernels; everything after it is written here again.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "device/kernel_launch.h"
#include "task/hash_table.h"
#include "task/kernels_internal.h"
#include "task/primitive.h"

namespace adamant::reference {

using kernels::internal::Frame;

inline int64_t Load(const void* p, ElementType type, size_t i) {
  return type == ElementType::kInt32 ? static_cast<const int32_t*>(p)[i]
                                     : static_cast<const int64_t*>(p)[i];
}

inline void Store(void* p, ElementType type, size_t i, int64_t v) {
  if (type == ElementType::kInt32) {
    static_cast<int32_t*>(p)[i] = static_cast<int32_t>(v);
  } else {
    static_cast<int64_t*>(p)[i] = v;
  }
}

inline bool GetBit(const uint64_t* bitmap, size_t i) {
  return (bitmap[i / 64] >> (i % 64)) & 1;
}

inline void SetBitTo(uint64_t* bitmap, size_t i, bool value) {
  const uint64_t bit = uint64_t{1} << (i % 64);
  bitmap[i / 64] = value ? bitmap[i / 64] | bit : bitmap[i / 64] & ~bit;
}

inline bool Compare(CmpOp op, int64_t v, int64_t lo, int64_t hi) {
  switch (op) {
    case CmpOp::kLt: return v < lo;
    case CmpOp::kLe: return v <= lo;
    case CmpOp::kGt: return v > lo;
    case CmpOp::kGe: return v >= lo;
    case CmpOp::kEq: return v == lo;
    case CmpOp::kNe: return v != lo;
    case CmpOp::kBetween: return lo <= v && v <= hi;
    case CmpOp::kInPair: return v == lo || v == hi;
  }
  return false;
}

/// `b` is called only by the ops that read a second operand.
template <typename B>
int64_t ApplyMap(MapOp op, int64_t a, int64_t imm, const B& b) {
  switch (op) {
    case MapOp::kAddScalar: return a + imm;
    case MapOp::kSubScalar: return a - imm;
    case MapOp::kMulScalar: return a * imm;
    case MapOp::kAddCol: return a + b();
    case MapOp::kSubCol: return a - b();
    case MapOp::kMulCol: return a * b();
    case MapOp::kMulPctComplement: return a * (100 - b()) / 100;
    case MapOp::kMulPct: return a * b() / 100;
    case MapOp::kMulPctPlus: return a * (100 + b()) / 100;
    case MapOp::kIdentity: return a;
    case MapOp::kNeqPrev: return a != b() ? 1 : 0;
  }
  return 0;
}

inline int64_t AggIdentity(AggOp op) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount: return 0;
    case AggOp::kMin: return INT64_MAX;
    case AggOp::kMax: return INT64_MIN;
  }
  return 0;
}

inline int64_t AggCombine(AggOp op, int64_t acc, int64_t v) {
  switch (op) {
    case AggOp::kSum: return acc + v;
    case AggOp::kCount: return acc + 1;
    case AggOp::kMin: return v < acc ? v : acc;
    case AggOp::kMax: return v > acc ? v : acc;
  }
  return acc;
}

inline Status Overflow(const std::string& what, size_t row) {
  return Status::ExecutionError(what + " overflow at row " +
                                std::to_string(row));
}

inline Status Map(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  const auto op = static_cast<MapOp>(ctx->scalar(f.scalar_base));
  const auto in_type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto out_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 2));
  const int64_t imm = ctx->scalar(f.scalar_base + 3);
  const void* in0 = ctx->ptr(f.data_base);
  const void* in1 = f.num_data == 3 ? ctx->ptr(f.data_base + 1) : nullptr;
  void* out = ctx->ptr(f.data_base + f.num_data - 1);
  const ElementType second_type =
      IsPercentMap(op) ? ElementType::kInt32 : in_type;
  for (size_t i = 0; i < f.n; ++i) {
    const int64_t a = Load(in0, in_type, i);
    Store(out, out_type, i, ApplyMap(op, a, imm, [&] {
            if (op == MapOp::kNeqPrev) {
              return i > 0 ? Load(in0, in_type, i - 1) : a;
            }
            return Load(in1, second_type, i);
          }));
  }
  return Status::OK();
}

inline Status FilterBitmap(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 6));
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  const bool combine_and = ctx->scalar(f.scalar_base + 4) != 0;
  const void* in = ctx->ptr(f.data_base);
  auto* bitmap = ctx->ptr_as<uint64_t>(f.data_base + 1);
  for (size_t i = 0; i < f.n; ++i) {
    bool pred = Compare(op, Load(in, type, i), lo, hi);
    if (combine_and) pred = pred && GetBit(bitmap, i);
    SetBitTo(bitmap, i, pred);
  }
  return Status::OK();
}

inline Status FilterPosition(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  const void* in = ctx->ptr(f.data_base);
  auto* positions = ctx->ptr_as<int32_t>(f.data_base + 1);
  const size_t cap = ctx->arg_bytes(f.data_base + 1) / sizeof(int32_t);
  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (!Compare(op, Load(in, type, i), lo, hi)) continue;
    if (k == cap) return Overflow("position list", i);
    positions[k++] = static_cast<int32_t>(i);
  }
  *ctx->ptr_as<int64_t>(f.data_base + 2) = static_cast<int64_t>(k);
  return Status::OK();
}

inline Status Materialize(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  const void* in = ctx->ptr(f.data_base);
  const auto* bitmap = ctx->ptr_as<const uint64_t>(f.data_base + 1);
  void* out = ctx->ptr(f.data_base + 2);
  const size_t cap = ctx->arg_bytes(f.data_base + 2) / ElementSize(type);
  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (!GetBit(bitmap, i)) continue;
    if (k == cap) return Overflow("materialize", i);
    Store(out, type, k++, Load(in, type, i));
  }
  *ctx->ptr_as<int64_t>(f.data_base + 3) = static_cast<int64_t>(k);
  return Status::OK();
}

inline Status MaterializePosition(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  const void* in = ctx->ptr(f.data_base);
  const auto* positions = ctx->ptr_as<const int32_t>(f.data_base + 1);
  void* out = ctx->ptr(f.data_base + 2);
  const size_t in_len = ctx->arg_bytes(f.data_base) / ElementSize(type);
  for (size_t i = 0; i < f.n; ++i) {
    const auto p = static_cast<size_t>(positions[i]);
    if (p >= in_len) {
      return Status::ExecutionError("gather position " + std::to_string(p) +
                                    " out of range " + std::to_string(in_len));
    }
    Store(out, type, i, Load(in, type, p));
  }
  return Status::OK();
}

inline Status PrefixSum(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  const bool exclusive = ctx->scalar(f.scalar_base) != 0;
  const auto* in = ctx->ptr_as<const int32_t>(f.data_base);
  auto* out = ctx->ptr_as<int32_t>(f.data_base + 1);
  uint32_t acc = 0;
  for (size_t i = 0; i < f.n; ++i) {
    if (exclusive) out[i] = static_cast<int32_t>(acc);
    acc += static_cast<uint32_t>(in[i]);
    if (!exclusive) out[i] = static_cast<int32_t>(acc);
  }
  return Status::OK();
}

inline Status AggBlock(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const bool init = ctx->scalar(f.scalar_base + 2) != 0;
  const void* in = ctx->ptr(f.data_base);
  auto* acc = ctx->ptr_as<int64_t>(f.data_base + 1);
  int64_t a = init ? AggIdentity(op) : *acc;
  for (size_t i = 0; i < f.n; ++i) {
    a = AggCombine(op, a, op == AggOp::kCount ? 0 : Load(in, type, i));
  }
  *acc = a;
  return Status::OK();
}

inline Status HashBuild(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 3));
  const bool has_payload = f.num_data == 3;
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const int64_t pos_base = ctx->scalar(f.scalar_base + 1);
  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const int32_t* payload =
      has_payload ? ctx->ptr_as<const int32_t>(f.data_base + 1) : nullptr;
  auto* table = static_cast<HashTableLayout::BuildSlot*>(
      ctx->ptr(f.data_base + f.num_data - 1));
  for (size_t i = 0; i < f.n; ++i) {
    if (keys[i] == HashTableLayout::kEmptyKey) {
      return Status::InvalidArgument("key collides with empty sentinel");
    }
    size_t slot = HashTableLayout::Hash(keys[i]) & (num_slots - 1);
    for (size_t attempts = 0; table[slot].key != HashTableLayout::kEmptyKey;) {
      slot = (slot + 1) & (num_slots - 1);
      if (++attempts >= num_slots) {
        return Status::ExecutionError("hash table full (" +
                                      std::to_string(num_slots) + " slots)");
      }
    }
    table[slot].key = keys[i];
    table[slot].payload =
        has_payload ? payload[i]
                    : static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
  }
  return Status::OK();
}

inline Status HashProbe(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const auto mode = static_cast<ProbeMode>(ctx->scalar(f.scalar_base + 1));
  const int64_t pos_base = ctx->scalar(f.scalar_base + 2);
  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const auto* table =
      static_cast<const HashTableLayout::BuildSlot*>(ctx->ptr(f.data_base + 1));
  auto* left = ctx->ptr_as<int32_t>(f.data_base + 2);
  auto* right = ctx->ptr_as<int32_t>(f.data_base + 3);
  const size_t cap = std::min(ctx->arg_bytes(f.data_base + 2),
                              ctx->arg_bytes(f.data_base + 3)) /
                     sizeof(int32_t);
  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    size_t slot = HashTableLayout::Hash(keys[i]) & (num_slots - 1);
    for (size_t attempts = 0;
         table[slot].key != HashTableLayout::kEmptyKey && attempts < num_slots;
         ++attempts, slot = (slot + 1) & (num_slots - 1)) {
      if (table[slot].key != keys[i]) continue;
      if (k == cap) return Overflow("join result", i);
      left[k] = static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
      right[k++] = table[slot].payload;
      if (mode == ProbeMode::kSemi) break;
    }
  }
  *ctx->ptr_as<int64_t>(f.data_base + 4) = static_cast<int64_t>(k);
  return Status::OK();
}

// Accumulator a of a slot lives at byte kAggAccOffset + 8a; the key at 0.
inline Status HashAgg(KernelExecContext* ctx) {
  const auto num_accs = static_cast<size_t>(ctx->scalar(ctx->num_args() - 2));
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 3 + 2 * num_accs));
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  std::vector<AggOp> ops;
  std::vector<ElementType> types;
  std::vector<const void*> values;
  size_t values_arg = f.data_base + 1;
  for (size_t a = 0; a < num_accs; ++a) {
    ops.push_back(static_cast<AggOp>(ctx->scalar(f.scalar_base + 1 + 2 * a)));
    types.push_back(
        static_cast<ElementType>(ctx->scalar(f.scalar_base + 2 + 2 * a)));
    values.push_back(ops[a] == AggOp::kCount ? nullptr
                                             : ctx->ptr(values_arg++));
  }
  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  auto* table = static_cast<uint8_t*>(ctx->ptr(values_arg));
  const size_t slot_bytes = HashTableLayout::AggSlotBytes(num_accs);
  const auto key_of = [&](size_t slot) {
    int32_t key;
    std::memcpy(&key, table + slot * slot_bytes, sizeof(key));
    return key;
  };
  const auto acc_at = [&](size_t slot, size_t a) {
    return table + slot * slot_bytes + HashTableLayout::kAggAccOffset +
           a * sizeof(int64_t);
  };
  for (size_t i = 0; i < f.n; ++i) {
    if (keys[i] == HashTableLayout::kEmptyKey) {
      return Status::InvalidArgument("key collides with empty sentinel");
    }
    size_t slot = HashTableLayout::Hash(keys[i]) & (num_slots - 1);
    for (size_t attempts = 0; key_of(slot) != HashTableLayout::kEmptyKey &&
                              key_of(slot) != keys[i];) {
      slot = (slot + 1) & (num_slots - 1);
      if (++attempts >= num_slots) {
        return Status::ExecutionError("aggregation hash table full");
      }
    }
    if (key_of(slot) == HashTableLayout::kEmptyKey) {
      std::memcpy(table + slot * slot_bytes, &keys[i], sizeof(int32_t));
      for (size_t a = 0; a < num_accs; ++a) {
        const int64_t identity = AggIdentity(ops[a]);
        std::memcpy(acc_at(slot, a), &identity, sizeof(identity));
      }
    }
    for (size_t a = 0; a < num_accs; ++a) {
      int64_t acc;
      std::memcpy(&acc, acc_at(slot, a), sizeof(acc));
      acc = AggCombine(ops[a], acc,
                       values[a] != nullptr ? Load(values[a], types[a], i) : 0);
      std::memcpy(acc_at(slot, a), &acc, sizeof(acc));
    }
  }
  return Status::OK();
}

inline Status SortAgg(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto value_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto num_groups = static_cast<size_t>(ctx->scalar(f.scalar_base + 2));
  const bool init = ctx->scalar(f.scalar_base + 3) != 0;
  const void* values = ctx->ptr(f.data_base);
  const auto* pxsum = ctx->ptr_as<const int32_t>(f.data_base + 1);
  auto* agg = ctx->ptr_as<int64_t>(f.data_base + 2);
  if (init) std::memset(agg, 0, num_groups * sizeof(int64_t));
  for (size_t i = 0; i < f.n; ++i) {
    const auto g = static_cast<size_t>(pxsum[i]);
    if (g >= num_groups) {
      return Status::ExecutionError("group index " + std::to_string(g) +
                                    " out of range " +
                                    std::to_string(num_groups));
    }
    agg[g] = AggCombine(
        op, agg[g], op == AggOp::kCount ? 0 : Load(values, value_type, i));
  }
  return Status::OK();
}

/// The fused recipe replayed per row: every step in recipe order, a filter
/// short-circuiting the row's predicate, a map skipped once it is false.
inline Status Fused(KernelExecContext* ctx) {
  const size_t num_args = ctx->num_args();
  const auto num_steps = static_cast<size_t>(ctx->scalar(num_args - 2));
  const auto num_inputs = static_cast<size_t>(ctx->scalar(num_args - 3));
  const bool init = ctx->scalar(num_args - 4) != 0;
  ADAMANT_ASSIGN_OR_RETURN(
      Frame f, Frame::Decode(*ctx, kFusedStepScalars * num_steps + 4));
  std::vector<FusedStep> steps(num_steps);
  for (size_t s = 0; s < num_steps; ++s) {
    const size_t base = f.scalar_base + kFusedStepScalars * s;
    steps[s].op = static_cast<FusedStep::Op>(ctx->scalar(base));
    steps[s].a = ctx->scalar(base + 1);
    steps[s].b = ctx->scalar(base + 2);
    steps[s].c = ctx->scalar(base + 3);
    steps[s].src0 = static_cast<int32_t>(ctx->scalar(base + 4));
    steps[s].src1 = static_cast<int32_t>(ctx->scalar(base + 5));
  }
  const FusedStep& terminal = steps.back();
  const size_t out_arg = f.data_base + num_inputs;
  std::vector<int64_t> regs(num_steps, 0);
  int64_t acc = terminal.op == FusedStep::Op::kAgg && !init
                    ? *ctx->ptr_as<int64_t>(out_arg)
                    : AggIdentity(static_cast<AggOp>(terminal.a));
  const size_t cap =
      terminal.op == FusedStep::Op::kEmit
          ? ctx->arg_bytes(out_arg) /
                ElementSize(static_cast<ElementType>(terminal.a))
          : 0;
  size_t k = 0;
  for (size_t i = 0; i < f.n; ++i) {
    bool pred = true;
    for (size_t s = 0; s + 1 < num_steps; ++s) {
      const FusedStep& st = steps[s];
      switch (st.op) {
        case FusedStep::Op::kLoad:
          regs[s] = Load(ctx->ptr(f.data_base + static_cast<size_t>(st.a)),
                         static_cast<ElementType>(st.b), i);
          break;
        case FusedStep::Op::kFilter:
          pred = pred && Compare(static_cast<CmpOp>(st.a), regs[st.src0],
                                 st.b, st.c);
          break;
        case FusedStep::Op::kMap:
          if (!pred) break;
          regs[s] = ApplyMap(static_cast<MapOp>(st.a), regs[st.src0], st.b,
                             [&] { return regs[st.src1]; });
          if (static_cast<ElementType>(st.c) == ElementType::kInt32) {
            regs[s] = static_cast<int32_t>(regs[s]);
          }
          break;
        case FusedStep::Op::kEmit:
        case FusedStep::Op::kAgg:
          break;
      }
    }
    if (!pred) continue;
    const auto agg_op = static_cast<AggOp>(terminal.a);
    if (terminal.op == FusedStep::Op::kAgg) {
      acc = AggCombine(agg_op, acc,
                       agg_op == AggOp::kCount ? 0 : regs[terminal.src0]);
      continue;
    }
    if (k == cap) return Overflow("fused output", i);
    Store(ctx->ptr(out_arg), static_cast<ElementType>(terminal.a), k++,
          regs[terminal.src0]);
  }
  if (terminal.op == FusedStep::Op::kAgg) {
    *ctx->ptr_as<int64_t>(out_arg) = acc;
  } else {
    *ctx->ptr_as<int64_t>(out_arg + 1) = static_cast<int64_t>(k);
  }
  return Status::OK();
}

/// The reference implementation of kernel `name`, or null for kernels it
/// does not cover (fill).
inline HostKernelFn KernelFn(const std::string& name) {
  if (name == "map") return Map;
  if (name == "filter_bitmap") return FilterBitmap;
  if (name == "filter_position") return FilterPosition;
  if (name == "materialize") return Materialize;
  if (name == "materialize_position") return MaterializePosition;
  if (name == "prefix_sum") return PrefixSum;
  if (name == "agg_block") return AggBlock;
  if (name == "hash_build") return HashBuild;
  if (name == "hash_probe") return HashProbe;
  if (name == "hash_agg") return HashAgg;
  if (name == "sort_agg") return SortAgg;
  if (name == "fused") return Fused;
  return nullptr;
}

}  // namespace adamant::reference

#endif  // ADAMANT_TESTS_KERNEL_REFERENCE_H_
