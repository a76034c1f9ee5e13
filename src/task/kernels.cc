#include "task/kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <type_traits>
#include <utility>

#include "common/bit_util.h"
#include "common/logging.h"
#include "task/hash_table.h"
#include "task/kernels_fused.h"
#include "task/kernels_internal.h"

namespace adamant::kernels {

namespace {

using internal::AggCombine;
using internal::AggIdentity;
using internal::ApplyMap;
using internal::CheckCapacity;
using internal::CheckIntType;
using internal::Compact;
using internal::CompactWords;
using internal::Fold;
using internal::ForEachTile;
using internal::Frame;
using internal::LiveBits;
using internal::PredicateWord;
using internal::ScanTiles;
using internal::WithAggOp;
using internal::WithIntType;
using internal::WithMapOp;
using internal::WithPredicate;

/// Rows ahead of the current one whose home slot the hash kernels prefetch.
constexpr size_t kPrefetchRows = 16;

// ---------------------------------------------------------------------------
// Kernel implementations. The per-kernel scalar lists are documented in
// kernels.h; scalar k lives at index frame.scalar_base + k. Each kernel
// resolves its types and ops once, then runs its typed row body through one
// strategy of kernels_internal.h.
// ---------------------------------------------------------------------------

// Data: in0[, in1], out. Scalars: op, in_type, out_type, imm, has_count.
// Tiles are independent: kNeqPrev reads in0[i-1] across a tile boundary, but
// in0 is read-only.
Status MapKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 2 && f.num_data != 3) {
    return Status::InvalidArgument("map expects 2 or 3 data buffers");
  }
  const bool col_col = f.num_data == 3;
  const auto op = static_cast<MapOp>(ctx->scalar(f.scalar_base));
  const auto in_type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto out_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 2));
  const int64_t imm = ctx->scalar(f.scalar_base + 3);
  ADAMANT_RETURN_NOT_OK(CheckIntType(in_type));
  ADAMANT_RETURN_NOT_OK(CheckIntType(out_type));

  const size_t out_arg = f.data_base + f.num_data - 1;
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, out_arg, f.n * ElementSize(out_type), "map out"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * ElementSize(in_type), "map in"));
  if (MapReadsSecondColumn(op) != col_col) {
    return Status::InvalidArgument(
        "map operand mismatch: column-column op requires exactly 3 buffers");
  }
  // The second operand: in1 (an int32 percentage for the percentage ops),
  // or for kNeqPrev the previous row of in0.
  if (col_col) {
    const ElementType in1_type =
        IsPercentMap(op) ? ElementType::kInt32 : in_type;
    ADAMANT_RETURN_NOT_OK(CheckCapacity(
        *ctx, f.data_base + 1, f.n * ElementSize(in1_type), "map in1"));
  }

  return WithMapOp(op, [&](auto op_c) {
    constexpr MapOp kOp = decltype(op_c)::value;
    return WithIntType(in_type, [&](auto in_tag) {
      using In = decltype(in_tag);
      using Second = std::conditional_t<IsPercentMap(kOp), int32_t, In>;
      return WithIntType(out_type, [&](auto out_tag) {
        using Out = decltype(out_tag);
        const auto* in0 = ctx->ptr_as<const In>(f.data_base);
        const Second* second =
            kOp == MapOp::kNeqPrev
                ? ctx->ptr_as<const Second>(f.data_base)
                : (col_col ? ctx->ptr_as<const Second>(f.data_base + 1)
                           : nullptr);
        constexpr size_t kShift = kOp == MapOp::kNeqPrev ? 1 : 0;
        auto* out = ctx->ptr_as<Out>(out_arg);
        return ForEachTile(ctx, f.n, "map", [&](size_t begin, size_t end) {
          size_t i = begin;
          if (kShift == 1 && i == 0 && end > 0) {
            // Row 0 has no previous row: its second operand is itself.
            const int64_t a = in0[0];
            out[0] = static_cast<Out>(ApplyMap<kOp>(a, imm, [&] { return a; }));
            i = 1;
          }
          for (; i < end; ++i) {
            out[i] = static_cast<Out>(ApplyMap<kOp>(in0[i], imm, [&] {
              return static_cast<int64_t>(second[i - kShift]);
            }));
          }
          return Status::OK();
        });
      });
    });
  });
}

// Data: in, bitmap. Scalars: cmp, type, lo, hi, combine_and, has_count.
// Each word is built from 64 predicates and stored once; tiles own whole
// bitmap words (the tile size is a multiple of 64).
Status FilterBitmapKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 6));
  if (f.num_data != 2) {
    return Status::InvalidArgument("filter_bitmap expects 2 data buffers");
  }
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  const bool combine_and = ctx->scalar(f.scalar_base + 4) != 0;
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  auto* bitmap = ctx->ptr_as<uint64_t>(f.data_base + 1);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, bit_util::BytesForBits(f.n), "filter bitmap"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                      f.n * ElementSize(type), "filter in"));

  return WithPredicate(op, lo, hi, [&](const auto& pred) {
    return WithIntType(type, [&](auto tag) {
      const auto* in = ctx->ptr_as<const decltype(tag)>(f.data_base);
      return ForEachTile(
          ctx, f.n, "filter_bitmap", [&](size_t begin, size_t end) {
            for (size_t w = begin / 64; w * 64 < end; ++w) {
              const size_t m = std::min<size_t>(64, end - w * 64);
              uint64_t word = PredicateWord(in + w * 64, m, pred);
              if (combine_and) word &= bitmap[w];
              if (m < 64) {
                // The tail word keeps its bits at rows n and up.
                const uint64_t live = LiveBits(end, w);
                word |= bitmap[w] & ~live;
              }
              bitmap[w] = word;
            }
            return Status::OK();
          });
    });
  });
}

// Data: in, positions, count_out. Scalars: cmp, type, lo, hi, has_count.
Status FilterPositionKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 3) {
    return Status::InvalidArgument("filter_position expects 3 data buffers");
  }
  const auto op = static_cast<CmpOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const int64_t lo = ctx->scalar(f.scalar_base + 2);
  const int64_t hi = ctx->scalar(f.scalar_base + 3);
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  auto* positions = ctx->ptr_as<int32_t>(f.data_base + 1);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 2);
  const size_t cap = ctx->arg_bytes(f.data_base + 1) / sizeof(int32_t);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                      f.n * ElementSize(type), "filter in"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 2, sizeof(int64_t), "count"));

  // The result size is estimated up-front (Table I); overflowing the
  // estimate is an execution error the runtime surfaces.
  return WithPredicate(op, lo, hi, [&](const auto& pred) {
    return WithIntType(type, [&](auto tag) {
      const auto* in = ctx->ptr_as<const decltype(tag)>(f.data_base);
      return CompactWords(
          ctx, f.n, "filter_position", cap, "position list",
          [&](size_t w) {
            return PredicateWord(in + w * 64,
                                 std::min<size_t>(64, f.n - w * 64), pred);
          },
          [&](size_t k, size_t i) { positions[k] = static_cast<int32_t>(i); },
          count);
    });
  });
}

// Data: in, bitmap, out, count_out. Scalars: type, has_count.
Status MaterializeKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 4) {
    return Status::InvalidArgument("materialize expects 4 data buffers");
  }
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const auto* bitmap = ctx->ptr_as<const uint64_t>(f.data_base + 1);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 3);
  const size_t cap = ctx->arg_bytes(f.data_base + 2) / ElementSize(type);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                      f.n * ElementSize(type),
                                      "materialize in"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, bit_util::BytesForBits(f.n), "bitmap"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 3, sizeof(int64_t), "count"));

  return WithIntType(type, [&](auto tag) {
    using T = decltype(tag);
    const auto* in = ctx->ptr_as<const T>(f.data_base);
    auto* out = ctx->ptr_as<T>(f.data_base + 2);
    return CompactWords(
        ctx, f.n, "materialize", cap, "materialize",
        [&](size_t w) { return bitmap[w] & LiveBits(f.n, w); },
        [&](size_t k, size_t i) { out[k] = in[i]; }, count);
  });
}

// Data: in, positions, out. Scalars: type, has_count.
Status MaterializePositionKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 3) {
    return Status::InvalidArgument(
        "materialize_position expects 3 data buffers");
  }
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base));
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  const auto* positions = ctx->ptr_as<const int32_t>(f.data_base + 1);
  const size_t in_len = ctx->arg_bytes(f.data_base) / ElementSize(type);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 1,
                                      f.n * sizeof(int32_t), "positions"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 2,
                                      f.n * ElementSize(type), "gather out"));

  return WithIntType(type, [&](auto tag) {
    using T = decltype(tag);
    const auto* in = ctx->ptr_as<const T>(f.data_base);
    auto* out = ctx->ptr_as<T>(f.data_base + 2);
    return ForEachTile(
        ctx, f.n, "materialize_position", [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const auto p = static_cast<size_t>(positions[i]);
            if (p >= in_len) {
              return Status::ExecutionError("gather position " +
                                            std::to_string(p) +
                                            " out of range " +
                                            std::to_string(in_len));
            }
            out[i] = in[p];
          }
          return Status::OK();
        });
  });
}

// Data: in, out (both int32). Scalars: exclusive, has_count.
Status PrefixSumKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 2) {
    return Status::InvalidArgument("prefix_sum expects 2 data buffers");
  }
  const bool exclusive = ctx->scalar(f.scalar_base) != 0;
  const auto* in = ctx->ptr_as<const int32_t>(f.data_base);
  auto* out = ctx->ptr_as<int32_t>(f.data_base + 1);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * 4, "prefix_sum in"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 1, f.n * 4, "prefix_sum out"));

  // int32 sums wrap mod 2^32; the unsigned accumulator makes that defined.
  return ScanTiles(
      ctx, f.n, "prefix_sum",
      [&](size_t begin, size_t end) {
        uint32_t sum = 0;
        for (size_t i = begin; i < end; ++i) {
          sum += static_cast<uint32_t>(in[i]);
        }
        return sum;
      },
      [&](size_t begin, size_t end, uint32_t acc) {
        for (size_t i = begin; i < end; ++i) {
          const uint32_t v = static_cast<uint32_t>(in[i]);
          out[i] = static_cast<int32_t>(exclusive ? acc : acc + v);
          acc += v;
        }
      });
}

// Data: in, acc(int64[1]). Scalars: op, type, init, has_count.
Status AggBlockKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  if (f.num_data != 2) {
    return Status::InvalidArgument("agg_block expects 2 data buffers");
  }
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto type = static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const bool init = ctx->scalar(f.scalar_base + 2) != 0;
  ADAMANT_RETURN_NOT_OK(CheckIntType(type));

  auto* acc = ctx->ptr_as<int64_t>(f.data_base + 1);
  if (op != AggOp::kCount) {
    ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                        f.n * ElementSize(type), "agg in"));
  }
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 1, sizeof(int64_t), "acc"));

  return WithAggOp(op, [&](auto op_c) {
    constexpr AggOp kOp = decltype(op_c)::value;
    return WithIntType(type, [&](auto tag) {
      const auto* in = ctx->ptr_as<const decltype(tag)>(f.data_base);
      return Fold(ctx, f.n, "agg_block", kOp, init, acc,
                  [&](size_t begin, size_t end, int64_t a) {
                    for (size_t i = begin; i < end; ++i) {
                      a = AggCombine<kOp>(
                          a, kOp == AggOp::kCount ? 0 : int64_t{in[i]});
                    }
                    return a;
                  });
    });
  });
}

// Data: keys[, payload], table. Scalars: num_slots, pos_base, has_count.
Status HashBuildKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 3));
  if (f.num_data != 2 && f.num_data != 3) {
    return Status::InvalidArgument("hash_build expects 2 or 3 data buffers");
  }
  const bool has_payload = f.num_data == 3;
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const int64_t pos_base = ctx->scalar(f.scalar_base + 1);
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }

  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const int32_t* payload =
      has_payload ? ctx->ptr_as<const int32_t>(f.data_base + 1) : nullptr;
  const size_t table_arg = f.data_base + f.num_data - 1;
  auto* table = static_cast<HashTableLayout::BuildSlot*>(ctx->ptr(table_arg));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * sizeof(int32_t), "keys"));
  if (has_payload) {
    ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 1,
                                        f.n * sizeof(int32_t), "payload"));
  }
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, table_arg, HashTableLayout::BuildTableBytes(num_slots), "table"));

  const size_t mask = num_slots - 1;
  // Insertion is serial: the linear-probe layout depends on insertion
  // order. It reports the first error in row order, and prefetches the
  // home slot kPrefetchRows rows ahead.
  const auto insert_rows = [&](const auto& home_slot) {
    for (size_t i = 0; i < f.n; ++i) {
      if (i + kPrefetchRows < f.n) {
        __builtin_prefetch(&table[home_slot(i + kPrefetchRows)], 1);
      }
      const int32_t key = keys[i];
      if (key == HashTableLayout::kEmptyKey) {
        return Status::InvalidArgument("key collides with empty sentinel");
      }
      size_t slot = home_slot(i);
      size_t attempts = 0;
      // Linear probing; duplicates occupy their own slots within the cluster.
      while (table[slot].key != HashTableLayout::kEmptyKey) {
        slot = (slot + 1) & mask;
        if (++attempts >= num_slots) {
          return Status::ExecutionError("hash table full (" +
                                        std::to_string(num_slots) + " slots)");
        }
      }
      table[slot].key = key;
      table[slot].payload =
          has_payload ? payload[i]
                      : static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
    }
    return Status::OK();
  };
  if (!internal::RunsTiled(*ctx, f.n)) {
    return insert_rows(
        [&](size_t i) { return HashTableLayout::Hash(keys[i]) & mask; });
  }
  // Tiled, the hash pass runs ahead on independent tiles; it records home
  // slots only, so every error still comes from the insert, in row order.
  std::vector<uint32_t> home(f.n);
  ADAMANT_RETURN_NOT_OK(
      ForEachTile(ctx, f.n, "hash_build", [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          home[i] = HashTableLayout::Hash(keys[i]) & static_cast<uint32_t>(mask);
        }
        return Status::OK();
      }));
  return insert_rows([&](size_t i) { return home[i]; });
}

// Data: keys, table, left_pos, right_payload, count_out.
// Scalars: num_slots, mode, pos_base, has_count. The table is read-only, so
// tiles probe concurrently.
Status HashProbeKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 4));
  if (f.num_data != 5) {
    return Status::InvalidArgument("hash_probe expects 5 data buffers");
  }
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  const auto mode = static_cast<ProbeMode>(ctx->scalar(f.scalar_base + 1));
  const bool semi = mode == ProbeMode::kSemi;
  const int64_t pos_base = ctx->scalar(f.scalar_base + 2);
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }

  const auto* keys = ctx->ptr_as<const int32_t>(f.data_base);
  const auto* table =
      static_cast<const HashTableLayout::BuildSlot*>(ctx->ptr(f.data_base + 1));
  auto* left = ctx->ptr_as<int32_t>(f.data_base + 2);
  auto* right = ctx->ptr_as<int32_t>(f.data_base + 3);
  auto* count = ctx->ptr_as<int64_t>(f.data_base + 4);
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * sizeof(int32_t), "keys"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, f.data_base + 1, HashTableLayout::BuildTableBytes(num_slots),
      "table"));
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 4, sizeof(int64_t), "count"));
  const size_t cap = std::min(ctx->arg_bytes(f.data_base + 2),
                              ctx->arg_bytes(f.data_base + 3)) /
                     sizeof(int32_t);

  const size_t mask = num_slots - 1;
  return Compact(
      ctx, f.n, "hash_probe", cap, "join result",
      [&](size_t begin, size_t end, const auto& emit) {
        for (size_t i = begin; i < end; ++i) {
          if (i + kPrefetchRows < end) {
            __builtin_prefetch(
                &table[HashTableLayout::Hash(keys[i + kPrefetchRows]) & mask]);
          }
          const int32_t key = keys[i];
          size_t slot = HashTableLayout::Hash(key) & mask;
          size_t attempts = 0;
          while (table[slot].key != HashTableLayout::kEmptyKey &&
                 attempts < num_slots) {
            if (table[slot].key == key) {
              emit(i, table[slot].payload);
              if (semi) break;
            }
            slot = (slot + 1) & mask;
            ++attempts;
          }
        }
      },
      [&](size_t k, size_t i, int32_t build_payload) {
        left[k] = static_cast<int32_t>(pos_base + static_cast<int64_t>(i));
        right[k] = build_payload;
      },
      count);
}

// The HASH_AGG accumulators of one (op, value type) kind, resolved once per
// launch: each one's values column and its index in a slot's acc[].
template <typename T>
struct AccKind {
  const T* values[HashTableLayout::kMaxAccumulators];
  uint32_t acc[HashTableLayout::kMaxAccumulators];
  uint32_t count = 0;

  void Add(const void* column, size_t accumulator) {
    values[count] = static_cast<const T*>(column);
    acc[count++] = static_cast<uint32_t>(accumulator);
  }
};

// Every accumulator of a launch, by kind.
struct AccKinds {
  AccKind<int32_t> sum32, min32, max32;
  AccKind<int64_t> sum64, min64, max64, count;
};

// Folds row i into accumulators [first, last) of one kind, a runtime range;
// the op and the value type are compile-time.
template <AggOp Op, typename T>
[[gnu::always_inline]] inline void FoldKind(int64_t* __restrict accs,
                                            const AccKind<T>& kind,
                                            size_t first, size_t last,
                                            size_t i) {
  for (size_t k = first; k < last; ++k) {
    int64_t value = 0;
    if constexpr (Op != AggOp::kCount) value = kind.values[k][i];
    accs[kind.acc[k]] = AggCombine<Op>(accs[kind.acc[k]], value);
  }
}

// An aggregation table as the row loop sees it: slots of num_accs
// accumulators, and the identities a new group's slot starts from.
struct HashAggTable {
  uint8_t* slots;
  size_t num_slots;
  size_t num_accs;
  const int64_t* identity;
};

// Probes each row's key, claiming an empty slot for a new group, and hands
// the group's accumulators to fold(accs, i). Fails at the first sentinel
// key or when the table is full, with rows [0, i) applied.
template <typename Fold>
Status AggRows(const int32_t* __restrict keys, size_t n,
               const HashAggTable& table, const Fold& fold) {
  const size_t slot_bytes = HashTableLayout::AggSlotBytes(table.num_accs);
  const size_t mask = table.num_slots - 1;
  const auto key_at = [](uint8_t* slot) {
    return reinterpret_cast<int32_t*>(slot);
  };
  for (size_t i = 0; i < n; ++i) {
    const int32_t key = keys[i];
    if (key == HashTableLayout::kEmptyKey) {
      return Status::InvalidArgument("key collides with empty sentinel");
    }
    size_t slot = HashTableLayout::Hash(key) & mask;
    uint8_t* s = table.slots + slot * slot_bytes;
    size_t attempts = 0;
    while (*key_at(s) != HashTableLayout::kEmptyKey && *key_at(s) != key) {
      slot = (slot + 1) & mask;
      s = table.slots + slot * slot_bytes;
      if (++attempts >= table.num_slots) {
        return Status::ExecutionError("aggregation hash table full");
      }
    }
    auto* accs =
        reinterpret_cast<int64_t*>(s + HashTableLayout::kAggAccOffset);
    if (*key_at(s) == HashTableLayout::kEmptyKey) {
      *key_at(s) = key;
      for (size_t a = 0; a < table.num_accs; ++a) accs[a] = table.identity[a];
    }
    fold(accs, i);
  }
  return Status::OK();
}

// The first kNum accumulators of a kind, kNum compile-time: their folds
// unroll, and their columns and slots sit in fixed-size locals the row loop
// keeps in registers.
template <typename T, size_t kNum>
struct FixedKind {
  std::array<const T*, kNum> values;
  std::array<uint32_t, kNum> acc;

  explicit FixedKind(const AccKind<T>& kind) {
    for (size_t k = 0; k < kNum; ++k) {
      values[k] = kind.values[k];
      acc[k] = kind.acc[k];
    }
  }

  template <AggOp Op>
  void Fold(int64_t* __restrict accs, size_t i) const {
    for (size_t k = 0; k < kNum; ++k) {
      int64_t value = 0;
      if constexpr (Op != AggOp::kCount) value = values[k][i];
      accs[acc[k]] = AggCombine<Op>(accs[acc[k]], value);
    }
  }
};

// The row loop of a launch holding kSum32 int32 SUMs, kSum64 int64 SUMs and
// kCount (0 or 1) COUNTs, the bulk of a GROUP BY and all of TPC-H Q1's, as
// FixedKinds. Further COUNTs and the MIN/MAX kinds fold through loops over
// their runtime counts, when the launch holds any.
template <size_t kSum32, size_t kSum64, size_t kCount>
Status FoldRows(const int32_t* keys, size_t n, const HashAggTable& table,
                const AccKinds& launch_kinds) {
  const AccKinds k = launch_kinds;  // a copy the table's stores cannot alias
  const FixedKind<int32_t, kSum32> sum32(k.sum32);
  const FixedKind<int64_t, kSum64> sum64(k.sum64);
  const FixedKind<int64_t, kCount> count(k.count);
  const bool rest = k.count.count > kCount || k.min32.count > 0 ||
                    k.min64.count > 0 || k.max32.count > 0 ||
                    k.max64.count > 0;
  return AggRows(keys, n, table, [&](int64_t* accs, size_t i) {
    sum32.template Fold<AggOp::kSum>(accs, i);
    sum64.template Fold<AggOp::kSum>(accs, i);
    count.template Fold<AggOp::kCount>(accs, i);
    if (rest) {
      FoldKind<AggOp::kCount>(accs, k.count, kCount, k.count.count, i);
      FoldKind<AggOp::kMin>(accs, k.min32, 0, k.min32.count, i);
      FoldKind<AggOp::kMin>(accs, k.min64, 0, k.min64.count, i);
      FoldKind<AggOp::kMax>(accs, k.max32, 0, k.max32.count, i);
      FoldKind<AggOp::kMax>(accs, k.max64, 0, k.max64.count, i);
    }
  });
}

constexpr size_t kMaxAccs = HashTableLayout::kMaxAccumulators;

// FoldRows for every (kSum32, kSum64, kCount) a launch can hold, indexed by
// (kSum32 * (kMaxAccs + 1) + kSum64) * 2 + kCount.
using FoldRowsFn = Status (*)(const int32_t*, size_t, const HashAggTable&,
                              const AccKinds&);

template <size_t kIndex>
constexpr FoldRowsFn FoldRowsAt() {
  constexpr size_t kSum32 = kIndex / (2 * (kMaxAccs + 1));
  constexpr size_t kSum64 = kIndex / 2 % (kMaxAccs + 1);
  constexpr size_t kCount = kIndex % 2;
  if constexpr (kSum32 + kSum64 + kCount <= kMaxAccs) {
    return &FoldRows<kSum32, kSum64, kCount>;
  } else {
    return nullptr;
  }
}

template <size_t... kIndex>
constexpr std::array<FoldRowsFn, sizeof...(kIndex)> FoldRowsTable(
    std::index_sequence<kIndex...>) {
  return {FoldRowsAt<kIndex>()...};
}

// Data: keys, the values of every accumulator but COUNT, table.
// Scalars: num_slots, (op, value_type) per accumulator, num_accs, has_count.
// One probe per row finds the group's slot, then the row folds into all N
// accumulators, resolved once per launch into their typed kinds.
Status HashAggKernel(KernelExecContext* ctx) {
  if (ctx->num_args() < 2) {
    return Status::InvalidArgument("too few kernel arguments");
  }
  const auto num_accs =
      static_cast<size_t>(ctx->scalar(ctx->num_args() - 2));
  if (num_accs < 1 || num_accs > kMaxAccs) {
    return Status::InvalidArgument("hash_agg takes 1 to " +
                                   std::to_string(kMaxAccs) +
                                   " accumulators, got " +
                                   std::to_string(num_accs));
  }
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 3 + 2 * num_accs));
  const auto num_slots = static_cast<size_t>(ctx->scalar(f.scalar_base));
  if (!bit_util::IsPowerOfTwo(num_slots)) {
    return Status::InvalidArgument("num_slots must be a power of two");
  }
  AggOp ops[kMaxAccs];
  ElementType types[kMaxAccs];
  size_t num_valued = 0;
  for (size_t a = 0; a < num_accs; ++a) {
    ops[a] = static_cast<AggOp>(ctx->scalar(f.scalar_base + 1 + 2 * a));
    types[a] =
        static_cast<ElementType>(ctx->scalar(f.scalar_base + 2 + 2 * a));
    if (static_cast<uint64_t>(ops[a]) > static_cast<uint64_t>(AggOp::kMax)) {
      return Status::InvalidArgument(
          "unknown aggregate op " +
          std::to_string(static_cast<int64_t>(ops[a])));
    }
    if (ops[a] == AggOp::kCount) continue;
    ADAMANT_RETURN_NOT_OK(CheckIntType(types[a]));
    ++num_valued;
  }
  if (f.num_data != num_valued + 2) {
    return Status::InvalidArgument(
        "hash_agg expects " + std::to_string(num_valued + 2) +
        " data buffers: keys, one values buffer per accumulator but COUNT "
        "(Table I), table");
  }
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base, f.n * sizeof(int32_t), "keys"));

  // Resolve the accumulator list once: each accumulator joins the kind of
  // its (op, value type), and the identities fill a new group's slot.
  AccKinds kinds;
  int64_t identity[kMaxAccs];
  size_t values_arg = f.data_base + 1;
  for (size_t a = 0; a < num_accs; ++a) {
    identity[a] = AggIdentity(ops[a]);
    if (ops[a] == AggOp::kCount) {
      kinds.count.Add(nullptr, a);
      continue;
    }
    ADAMANT_RETURN_NOT_OK(CheckCapacity(
        *ctx, values_arg, f.n * ElementSize(types[a]), "values"));
    const void* column = ctx->ptr(values_arg++);
    const bool wide = types[a] == ElementType::kInt64;
    switch (ops[a]) {
      case AggOp::kSum:
        wide ? kinds.sum64.Add(column, a) : kinds.sum32.Add(column, a);
        break;
      case AggOp::kMin:
        wide ? kinds.min64.Add(column, a) : kinds.min32.Add(column, a);
        break;
      case AggOp::kMax:
        wide ? kinds.max64.Add(column, a) : kinds.max32.Add(column, a);
        break;
      case AggOp::kCount:
        break;
    }
  }
  const size_t table_arg = values_arg;
  ADAMANT_RETURN_NOT_OK(CheckCapacity(
      *ctx, table_arg, HashTableLayout::AggTableBytes(num_slots, num_accs),
      "table"));

  static constexpr auto kFoldRows = FoldRowsTable(
      std::make_index_sequence<2 * (kMaxAccs + 1) * (kMaxAccs + 1)>{});
  const size_t fold = (kinds.sum32.count * (kMaxAccs + 1) +
                       kinds.sum64.count) * 2 +
                      std::min<size_t>(kinds.count.count, 1);
  const HashAggTable table{static_cast<uint8_t*>(ctx->ptr(table_arg)),
                           num_slots, num_accs, identity};
  return kFoldRows[fold](ctx->ptr_as<const int32_t>(f.data_base), f.n, table,
                         kinds);
}

// Data: values, pxsum, agg. Scalars: op, value_type, num_groups, init,
// has_count.
Status SortAggKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 5));
  if (f.num_data != 3) {
    return Status::InvalidArgument("sort_agg expects 3 data buffers");
  }
  const auto op = static_cast<AggOp>(ctx->scalar(f.scalar_base));
  const auto value_type =
      static_cast<ElementType>(ctx->scalar(f.scalar_base + 1));
  const auto num_groups = static_cast<size_t>(ctx->scalar(f.scalar_base + 2));
  const bool init = ctx->scalar(f.scalar_base + 3) != 0;
  if (op == AggOp::kMin || op == AggOp::kMax) {
    return Status::NotSupported("sort_agg supports SUM and COUNT");
  }
  ADAMANT_RETURN_NOT_OK(CheckIntType(value_type));

  const auto* pxsum = ctx->ptr_as<const int32_t>(f.data_base + 1);
  auto* agg = ctx->ptr_as<int64_t>(f.data_base + 2);
  if (op != AggOp::kCount) {
    ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base,
                                        f.n * ElementSize(value_type),
                                        "values"));
  }
  ADAMANT_RETURN_NOT_OK(
      CheckCapacity(*ctx, f.data_base + 1, f.n * sizeof(int32_t), "pxsum"));
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base + 2,
                                      num_groups * sizeof(int64_t),
                                      "aggregates"));

  if (init) std::memset(agg, 0, num_groups * sizeof(int64_t));
  return WithAggOp(op, [&](auto op_c) {
    constexpr AggOp kOp = decltype(op_c)::value;
    return WithIntType(value_type, [&](auto tag) {
      const auto* values = ctx->ptr_as<const decltype(tag)>(f.data_base);
      for (size_t i = 0; i < f.n; ++i) {
        const auto g = static_cast<size_t>(pxsum[i]);
        if (g >= num_groups) {
          return Status::ExecutionError("group index " + std::to_string(g) +
                                        " out of range " +
                                        std::to_string(num_groups));
        }
        agg[g] = AggCombine<kOp>(agg[g],
                                 kOp == AggOp::kCount ? 0 : int64_t{values[i]});
      }
      return Status::OK();
    });
  });
}

// Data: out. Scalars: pattern, has_count. Fills work_items int32 words —
// infrastructure kernel (cudaMemset analog) used by prepare_output_buffer to
// initialize hash tables to the empty-key sentinel.
Status FillKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, Frame::Decode(*ctx, 2));
  if (f.num_data != 1) {
    return Status::InvalidArgument("fill expects 1 data buffer");
  }
  const auto pattern = static_cast<int32_t>(ctx->scalar(f.scalar_base));
  auto* out = ctx->ptr_as<int32_t>(f.data_base);
  ADAMANT_RETURN_NOT_OK(CheckCapacity(*ctx, f.data_base, f.n * 4, "fill out"));
  for (size_t i = 0; i < f.n; ++i) out[i] = pattern;
  return Status::OK();
}

struct KernelEntry {
  HostKernelFn fn;
  /// Runs a launch of two or more tiles as tiles under a thread budget.
  bool tiles;
};

const std::map<std::string, KernelEntry>& KernelTable() {
  static const std::map<std::string, KernelEntry>* const kTable =
      new std::map<std::string, KernelEntry>{
          {"map", {MapKernel, true}},
          {"filter_bitmap", {FilterBitmapKernel, true}},
          {"filter_position", {FilterPositionKernel, true}},
          {"materialize", {MaterializeKernel, true}},
          {"materialize_position", {MaterializePositionKernel, true}},
          {"prefix_sum", {PrefixSumKernel, true}},
          {"agg_block", {AggBlockKernel, true}},
          {"hash_build", {HashBuildKernel, true}},
          {"hash_probe", {HashProbeKernel, true}},
          {"hash_agg", {HashAggKernel, false}},
          {"sort_agg", {SortAggKernel, false}},
          {"fill", {FillKernel, false}},
          {"fused", {FusedKernel, true}},
      };
  return *kTable;
}

}  // namespace

HostKernelFn GetKernelFn(const std::string& name) {
  auto it = KernelTable().find(name);
  ADAMANT_CHECK(it != KernelTable().end()) << "unknown kernel '" << name << "'";
  return it->second.fn;
}

bool HasKernel(const std::string& name) {
  return KernelTable().count(name) > 0;
}

bool KernelTiles(const std::string& name) {
  auto it = KernelTable().find(name);
  return it != KernelTable().end() && it->second.tiles;
}

size_t ParallelTileElems() { return internal::kTileElems; }

const std::vector<std::string>& AllKernelNames() {
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const auto& [name, entry] : KernelTable()) names->push_back(name);
    return names;
  }();
  return *kNames;
}

std::string KernelSourceText(const std::string& name) {
  // Models the OpenCL kernel string that prepare_kernel would compile.
  return "__kernel void " + name +
         "(__global const int* in, __global int* out, const int n) { "
         "int gid = get_global_id(0); if (gid < n) { /* " +
         name + " body */ } }";
}

// ---------------------------------------------------------------------------
// Launch builders.
// ---------------------------------------------------------------------------

namespace {
KernelLaunch BaseLaunch(const char* name, size_t work_items,
                        BufferId count_in) {
  KernelLaunch launch;
  launch.kernel_name = name;
  launch.work_items = work_items;
  if (count_in != kInvalidBuffer) {
    launch.args.push_back(KernelArg::In(count_in));
  }
  return launch;
}

void FinishCount(KernelLaunch* launch, BufferId count_in) {
  launch->args.push_back(KernelArg::Scalar(count_in != kInvalidBuffer ? 1 : 0));
}
}  // namespace

KernelLaunch MakeMap(BufferId in0, BufferId in1, BufferId out, MapOp op,
                     ElementType in_type, ElementType out_type, int64_t imm,
                     size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("map", n, count_in);
  launch.args.push_back(KernelArg::In(in0));
  if (in1 != kInvalidBuffer) launch.args.push_back(KernelArg::In(in1));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(in_type)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(out_type)));
  launch.args.push_back(KernelArg::Scalar(imm));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeFilterBitmap(BufferId in, BufferId bitmap, CmpOp op,
                              ElementType type, int64_t lo, int64_t hi,
                              bool combine_and, size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("filter_bitmap", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(combine_and ? KernelArg::InOut(bitmap)
                                    : KernelArg::Out(bitmap));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(lo));
  launch.args.push_back(KernelArg::Scalar(hi));
  launch.args.push_back(KernelArg::Scalar(combine_and ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeFilterPosition(BufferId in, BufferId positions,
                                BufferId count, CmpOp op, ElementType type,
                                int64_t lo, int64_t hi, size_t n,
                                BufferId count_in) {
  KernelLaunch launch = BaseLaunch("filter_position", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::Out(positions));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(lo));
  launch.args.push_back(KernelArg::Scalar(hi));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeMaterialize(BufferId in, BufferId bitmap, BufferId out,
                             BufferId count, ElementType type, size_t n,
                             BufferId count_in) {
  KernelLaunch launch = BaseLaunch("materialize", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::In(bitmap));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeMaterializePosition(BufferId in, BufferId positions,
                                     BufferId out, ElementType type,
                                     size_t n_positions, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("materialize_position", n_positions,
                                   count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::In(positions));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakePrefixSum(BufferId in, BufferId out, bool exclusive, size_t n,
                           BufferId count_in) {
  KernelLaunch launch = BaseLaunch("prefix_sum", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(exclusive ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeAggBlock(BufferId in, BufferId acc, AggOp op,
                          ElementType type, bool init, size_t n,
                          BufferId count_in) {
  KernelLaunch launch = BaseLaunch("agg_block", n, count_in);
  launch.args.push_back(KernelArg::In(in));
  launch.args.push_back(KernelArg::InOut(acc));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(type)));
  launch.args.push_back(KernelArg::Scalar(init ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

KernelLaunch MakeHashBuild(BufferId keys, BufferId payload, BufferId table,
                           size_t num_slots, int64_t pos_base, size_t n,
                           BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_build", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  if (payload != kInvalidBuffer) launch.args.push_back(KernelArg::In(payload));
  launch.args.push_back(KernelArg::InOut(table));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  launch.args.push_back(KernelArg::Scalar(pos_base));
  FinishCount(&launch, count_in);
  // Atomic contention grows with the table size, which is data-dependent.
  launch.cost_param = static_cast<double>(num_slots);
  launch.scale_cost_param = true;
  return launch;
}

KernelLaunch MakeHashProbe(BufferId keys, BufferId table, BufferId left_pos,
                           BufferId right_payload, BufferId count,
                           size_t num_slots, ProbeMode mode, int64_t pos_base,
                           size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_probe", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  launch.args.push_back(KernelArg::In(table));
  launch.args.push_back(KernelArg::Out(left_pos));
  launch.args.push_back(KernelArg::Out(right_payload));
  launch.args.push_back(KernelArg::Out(count));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(mode)));
  launch.args.push_back(KernelArg::Scalar(pos_base));
  FinishCount(&launch, count_in);
  launch.cost_param = static_cast<double>(num_slots);
  launch.scale_cost_param = true;
  return launch;
}

KernelLaunch MakeHashAgg(BufferId keys,
                         const std::vector<HashAggAccumulator>& accs,
                         BufferId table, size_t num_slots, size_t n,
                         double nominal_groups, bool groups_scale_with_data,
                         BufferId count_in) {
  KernelLaunch launch = BaseLaunch("hash_agg", n, count_in);
  launch.args.push_back(KernelArg::In(keys));
  for (const HashAggAccumulator& acc : accs) {
    if (acc.values != kInvalidBuffer) {
      launch.args.push_back(KernelArg::In(acc.values));
    }
  }
  launch.args.push_back(KernelArg::InOut(table));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_slots)));
  for (const HashAggAccumulator& acc : accs) {
    launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(acc.op)));
    launch.args.push_back(
        KernelArg::Scalar(static_cast<int64_t>(acc.value_type)));
  }
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(accs.size())));
  FinishCount(&launch, count_in);
  launch.cost_param = nominal_groups;
  launch.scale_cost_param = groups_scale_with_data;
  // One atomic update per accumulator and tuple: N single-aggregate bodies.
  launch.bodies = static_cast<int>(accs.size());
  return launch;
}

KernelLaunch MakeFill(BufferId out, int32_t pattern, size_t n_words) {
  KernelLaunch launch = BaseLaunch("fill", n_words, kInvalidBuffer);
  launch.args.push_back(KernelArg::Out(out));
  launch.args.push_back(KernelArg::Scalar(pattern));
  FinishCount(&launch, kInvalidBuffer);
  return launch;
}

KernelLaunch MakeSortAgg(BufferId values, BufferId pxsum, BufferId agg,
                         AggOp op, ElementType value_type, size_t num_groups,
                         bool init, size_t n, BufferId count_in) {
  KernelLaunch launch = BaseLaunch("sort_agg", n, count_in);
  launch.args.push_back(KernelArg::In(values));
  launch.args.push_back(KernelArg::In(pxsum));
  launch.args.push_back(KernelArg::InOut(agg));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(op)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(value_type)));
  launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(num_groups)));
  launch.args.push_back(KernelArg::Scalar(init ? 1 : 0));
  FinishCount(&launch, count_in);
  return launch;
}

}  // namespace adamant::kernels
