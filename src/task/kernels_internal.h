#ifndef ADAMANT_TASK_KERNELS_INTERNAL_H_
#define ADAMANT_TASK_KERNELS_INTERNAL_H_

/// Shared decoding, arithmetic and tiling of the Task-layer kernels
/// (kernels.cc, kernels_fused.cc). Each kernel decodes and validates its
/// launch once, resolves its element types and ops once (WithIntType,
/// WithCmpOp, WithMapOp, WithAggOp), and hands its typed row body to one of
/// the strategies below. A row loop never switches on a runtime type or op:
/// the op semantics (Compare, ApplyMap, AggCombine) are templates on the op,
/// and bitmaps are read and written a 64-bit word at a time.
///
/// A strategy runs the body once over [0, n) when the launch's thread budget
/// is one thread or the launch holds fewer than two tiles, and otherwise
/// over kTileElems-row tiles on the shared task::WorkerPool, with output and
/// error messages bit-identical to the one-range run:
///
///   * ForEachTile: independent tiles (MAP, FILTER_BITMAP,
///     MATERIALIZE_POSITION; HASH_BUILD's hash pass).
///   * CompactWords: count -> exclusive offset -> compact over selection
///     words, reporting the row the one-range run fails on (MATERIALIZE,
///     FILTER_POSITION).
///   * Compact: the same over a row scan that emits any number of outputs
///     per row (HASH_PROBE, FUSED streams).
///   * Fold: per-tile folds merged by MergeAggPartials (AGG_BLOCK,
///     FUSED_AGG).
///   * ScanTiles: the three-pass tile scan (PREFIX_SUM).
///
/// Strategies take the body as a template argument, so the one-range path
/// compiles to the plain loop.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "device/kernel_launch.h"
#include "storage/types.h"
#include "task/merge.h"
#include "task/primitive.h"
#include "task/worker_pool.h"

namespace adamant::kernels::internal {

inline Status CheckIntType(ElementType type) {
  if (type != ElementType::kInt32 && type != ElementType::kInt64) {
    return Status::NotSupported(std::string("element type ") +
                                ElementTypeName(type) +
                                " in device kernels (int32/int64 only)");
  }
  return Status::OK();
}

inline Status CheckCapacity(const KernelExecContext& ctx, size_t arg,
                            size_t needed, const char* what) {
  if (ctx.arg_bytes(arg) < needed) {
    return Status::ExecutionError(
        std::string(what) + " buffer too small: need " +
        std::to_string(needed) + " bytes, have " +
        std::to_string(ctx.arg_bytes(arg)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One dispatch per launch: runtime types and ops become compile-time ones.
// ---------------------------------------------------------------------------

/// Calls f(T{}) with T the C++ type of `type`, which CheckIntType accepted.
template <typename F>
decltype(auto) WithIntType(ElementType type, const F& f) {
  return type == ElementType::kInt32 ? f(int32_t{}) : f(int64_t{});
}

template <auto V>
using Const = std::integral_constant<decltype(V), V>;

/// Calls f(Const<op>{}); an op outside the enum is an InvalidArgument.
template <typename F>
Status WithCmpOp(CmpOp op, const F& f) {
  switch (op) {
    case CmpOp::kLt: return f(Const<CmpOp::kLt>{});
    case CmpOp::kLe: return f(Const<CmpOp::kLe>{});
    case CmpOp::kGt: return f(Const<CmpOp::kGt>{});
    case CmpOp::kGe: return f(Const<CmpOp::kGe>{});
    case CmpOp::kEq: return f(Const<CmpOp::kEq>{});
    case CmpOp::kNe: return f(Const<CmpOp::kNe>{});
    case CmpOp::kBetween: return f(Const<CmpOp::kBetween>{});
    case CmpOp::kInPair: return f(Const<CmpOp::kInPair>{});
  }
  return Status::InvalidArgument("unknown comparison op " +
                                 std::to_string(static_cast<int64_t>(op)));
}

template <typename F>
Status WithMapOp(MapOp op, const F& f) {
  switch (op) {
    case MapOp::kAddScalar: return f(Const<MapOp::kAddScalar>{});
    case MapOp::kSubScalar: return f(Const<MapOp::kSubScalar>{});
    case MapOp::kMulScalar: return f(Const<MapOp::kMulScalar>{});
    case MapOp::kAddCol: return f(Const<MapOp::kAddCol>{});
    case MapOp::kSubCol: return f(Const<MapOp::kSubCol>{});
    case MapOp::kMulCol: return f(Const<MapOp::kMulCol>{});
    case MapOp::kMulPctComplement: return f(Const<MapOp::kMulPctComplement>{});
    case MapOp::kMulPct: return f(Const<MapOp::kMulPct>{});
    case MapOp::kMulPctPlus: return f(Const<MapOp::kMulPctPlus>{});
    case MapOp::kIdentity: return f(Const<MapOp::kIdentity>{});
    case MapOp::kNeqPrev: return f(Const<MapOp::kNeqPrev>{});
  }
  return Status::InvalidArgument("unknown map op " +
                                 std::to_string(static_cast<int64_t>(op)));
}

template <typename F>
Status WithAggOp(AggOp op, const F& f) {
  switch (op) {
    case AggOp::kSum: return f(Const<AggOp::kSum>{});
    case AggOp::kCount: return f(Const<AggOp::kCount>{});
    case AggOp::kMin: return f(Const<AggOp::kMin>{});
    case AggOp::kMax: return f(Const<AggOp::kMax>{});
  }
  return Status::InvalidArgument("unknown aggregate op " +
                                 std::to_string(static_cast<int64_t>(op)));
}

// ---------------------------------------------------------------------------
// Op semantics, each written once.
// ---------------------------------------------------------------------------

constexpr int64_t AggIdentity(AggOp op) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount:
      return 0;
    case AggOp::kMin:
      return INT64_MAX;
    case AggOp::kMax:
      return INT64_MIN;
  }
  return 0;
}

/// Folds one row's value into acc; COUNT ignores the value.
template <AggOp Op>
inline int64_t AggCombine(int64_t acc, int64_t value) {
  if constexpr (Op == AggOp::kSum) {
    return acc + value;
  } else if constexpr (Op == AggOp::kCount) {
    return acc + 1;
  } else if constexpr (Op == AggOp::kMin) {
    return value < acc ? value : acc;
  } else {
    static_assert(Op == AggOp::kMax);
    return value > acc ? value : acc;
  }
}

/// The comparison `Op` of v against lo (and hi). BETWEEN is lo <= v <= hi as
/// one unsigned range compare, which needs lo <= hi: WithPredicate turns an
/// empty range into a predicate no row satisfies.
template <CmpOp Op>
inline bool Compare(int64_t v, int64_t lo, int64_t hi) {
  if constexpr (Op == CmpOp::kLt) {
    return v < lo;
  } else if constexpr (Op == CmpOp::kLe) {
    return v <= lo;
  } else if constexpr (Op == CmpOp::kGt) {
    return v > lo;
  } else if constexpr (Op == CmpOp::kGe) {
    return v >= lo;
  } else if constexpr (Op == CmpOp::kEq) {
    return v == lo;
  } else if constexpr (Op == CmpOp::kNe) {
    return v != lo;
  } else if constexpr (Op == CmpOp::kBetween) {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(lo) <=
           static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  } else {
    static_assert(Op == CmpOp::kInPair);
    return (v == lo) | (v == hi);
  }
}

/// A BETWEEN whose range is empty (lo > hi) becomes v < INT64_MIN, which no
/// row satisfies; every other comparison is left as it is.
inline void ResolveEmptyRange(CmpOp* op, int64_t* lo, int64_t hi) {
  if (*op == CmpOp::kBetween && *lo > hi) {
    *op = CmpOp::kLt;
    *lo = INT64_MIN;
  }
}

/// Calls f(pred), pred(v) being the comparison `op` of v against lo/hi with
/// the op a compile-time constant.
template <typename F>
Status WithPredicate(CmpOp op, int64_t lo, int64_t hi, const F& f) {
  ResolveEmptyRange(&op, &lo, hi);
  return WithCmpOp(op, [&](auto op_c) {
    return f([lo, hi](int64_t v) {
      return Compare<decltype(op_c)::value>(v, lo, hi);
    });
  });
}

/// The MAP arithmetic of the map kernel and the fused interpreter: `Op` over
/// `a`, the immediate `imm` and `b()`, the second operand of the ops that
/// read a second column (for the percentage ops an int32 percentage).
/// kNeqPrev is the map kernel's alone: its b() is the previous row's value,
/// or `a` on row 0.
template <MapOp Op, typename SecondOperand>
inline int64_t ApplyMap(int64_t a, int64_t imm, const SecondOperand& b) {
  if constexpr (Op == MapOp::kAddScalar) {
    return a + imm;
  } else if constexpr (Op == MapOp::kSubScalar) {
    return a - imm;
  } else if constexpr (Op == MapOp::kMulScalar) {
    return a * imm;
  } else if constexpr (Op == MapOp::kAddCol) {
    return a + b();
  } else if constexpr (Op == MapOp::kSubCol) {
    return a - b();
  } else if constexpr (Op == MapOp::kMulCol) {
    return a * b();
  } else if constexpr (Op == MapOp::kMulPctComplement) {
    // Fixed-point price * (1 - discount).
    return a * (100 - b()) / 100;
  } else if constexpr (Op == MapOp::kMulPct) {
    return a * b() / 100;
  } else if constexpr (Op == MapOp::kMulPctPlus) {
    return a * (100 + b()) / 100;
  } else if constexpr (Op == MapOp::kIdentity) {
    return a;
  } else {
    static_assert(Op == MapOp::kNeqPrev);
    return a != b() ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Bitmap words.
// ---------------------------------------------------------------------------

/// The mask of word w's rows below n: all ones unless w is the tail word.
inline uint64_t LiveBits(size_t n, size_t w) {
  const size_t m = n - w * 64;
  return m >= 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
}

/// The predicate word of rows in[0, m), m <= 64: bit j is pred(in[j]), bits
/// m and up are zero. Full words run a fixed 64-row loop.
template <typename T, typename Pred>
inline uint64_t PredicateWord(const T* in, size_t m, const Pred& pred) {
  uint64_t word = 0;
  if (m == 64) {
    for (size_t j = 0; j < 64; ++j) {
      word |= static_cast<uint64_t>(pred(static_cast<int64_t>(in[j]))) << j;
    }
  } else {
    for (size_t j = 0; j < m; ++j) {
      word |= static_cast<uint64_t>(pred(static_cast<int64_t>(in[j]))) << j;
    }
  }
  return word;
}

/// Decoded argument frame: handles the `has_count_in` convention uniformly.
/// `num_scalars` is the kernel's fixed scalar count INCLUDING has_count_in.
struct Frame {
  size_t data_base;      // index of the first data buffer
  size_t num_data;       // number of data buffers
  size_t scalar_base;    // index of the first scalar
  size_t n;              // effective tuple count

  static Result<Frame> Decode(const KernelExecContext& ctx,
                              size_t num_scalars) {
    if (ctx.num_args() < num_scalars) {
      return Status::InvalidArgument("too few kernel arguments");
    }
    Frame frame;
    frame.scalar_base = ctx.num_args() - num_scalars;
    const bool has_count =
        ctx.scalar(ctx.num_args() - 1) != 0;  // last scalar by convention
    frame.data_base = has_count ? 1 : 0;
    if (frame.scalar_base < frame.data_base) {
      return Status::InvalidArgument("count_in flag set but no count buffer");
    }
    frame.num_data = frame.scalar_base - frame.data_base;
    frame.n = ctx.work_items();
    if (has_count) {
      if (ctx.arg_bytes(0) < sizeof(int64_t)) {
        return Status::InvalidArgument("count_in buffer too small");
      }
      const int64_t device_count = *ctx.ptr_as<const int64_t>(0);
      if (device_count < 0) {
        return Status::ExecutionError("negative device count");
      }
      frame.n = std::min<size_t>(frame.n, static_cast<size_t>(device_count));
    }
    return frame;
  }
};

// ---------------------------------------------------------------------------
// Tiling strategies.
// ---------------------------------------------------------------------------

/// Tile size (tuples): a power of two and a multiple of 64, so every tile
/// owns whole bitmap words.
constexpr size_t kTileElems = 16384;
constexpr size_t kTileWords = kTileElems / 64;

inline size_t NumTiles(size_t n) { return (n + kTileElems - 1) / kTileElems; }

/// True when a launch of n rows runs as tiles: a budget of more than one
/// thread and at least two tiles, enough to amortize the fork.
inline bool RunsTiled(const KernelExecContext& ctx, size_t n) {
  return ctx.parallel_threads() > 1 && NumTiles(n) >= 2;
}

/// Runs tile(t, begin, end) for every tile of [0, n) on the shared pool
/// and marks the launch tiled. The pool polls the launch's cancel token
/// per tile and reports the lowest failing tile's error.
template <typename TileFn>
Status RunTiles(KernelExecContext* ctx, size_t n, const char* label,
                const TileFn& tile) {
  ctx->set_tiled();
  return task::WorkerPool::Global().ParallelTiles(
      NumTiles(n), ctx->parallel_threads(), label,
      [&](size_t t) {
        return tile(t, t * kTileElems, std::min(n, (t + 1) * kTileElems));
      },
      ctx->cancel());
}

/// Exclusive scan of per-tile output counts into tile offsets, in place;
/// returns the total.
inline size_t ExclusiveScan(std::vector<size_t>* counts) {
  size_t total = 0;
  for (size_t& c : *counts) {
    const size_t tile_count = c;
    c = total;
    total += tile_count;
  }
  return total;
}

/// The tile holding output cap + 1 of an overflowing compaction: the last
/// tile that starts at or below cap.
inline size_t OverflowTile(const std::vector<size_t>& offsets, size_t cap) {
  size_t t = offsets.size() - 1;
  while (offsets[t] > cap) --t;
  return t;
}

inline Status OverflowAt(const char* what, size_t row) {
  return Status::ExecutionError(std::string(what) + " overflow at row " +
                                std::to_string(row));
}

/// Independent tiles: body(begin, end) handles rows [begin, end) and
/// returns its first error. Tiles fail on their first bad row and the pool
/// reports the lowest failing tile, so the error is the one-range run's.
template <typename Body>
Status ForEachTile(KernelExecContext* ctx, size_t n, const char* label,
                   const Body& body) {
  if (!RunsTiled(*ctx, n)) return body(size_t{0}, n);
  return RunTiles(ctx, n, label, [&](size_t, size_t begin, size_t end) {
    return body(begin, end);
  });
}

/// Compaction over selection words: word(w) returns the selection bits of
/// rows [64w, 64w + 64), zero at rows n and up, and write(k, i) stores
/// output k from row i. Zero words are skipped and set bits walked in row
/// order, one popcount per word checking the capacity. At most `cap`
/// outputs fit; past that the launch fails with "<what> overflow at row i"
/// for the row of output cap + 1. On success *count receives the number of
/// outputs.
template <typename Word, typename Write>
Status CompactWords(KernelExecContext* ctx, size_t n, const char* label,
                    size_t cap, const char* what, const Word& word,
                    const Write& write, int64_t* count) {
  // Writes the set rows of words [wb, we) from output *next on.
  const auto walk = [&](size_t wb, size_t we, size_t* next) {
    size_t k = *next;
    for (size_t w = wb; w < we; ++w) {
      uint64_t bits = word(w);
      if (bits == 0) continue;
      const size_t base = w * 64;
      if (k + static_cast<size_t>(std::popcount(bits)) > cap) {
        // Row by row inside the word that overflows.
        for (; k < cap; ++k, bits &= bits - 1) {
          write(k, base + static_cast<size_t>(std::countr_zero(bits)));
        }
        return OverflowAt(what,
                          base + static_cast<size_t>(std::countr_zero(bits)));
      }
      if (bits == ~uint64_t{0}) {
        // A full word copies 64 consecutive rows.
        for (size_t j = 0; j < 64; ++j) write(k + j, base + j);
        k += 64;
        continue;
      }
      for (; bits != 0; bits &= bits - 1) {
        write(k++, base + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
    *next = k;
    return Status::OK();
  };
  const size_t num_words = (n + 63) / 64;
  if (!RunsTiled(*ctx, n)) {
    size_t k = 0;
    ADAMANT_RETURN_NOT_OK(walk(0, num_words, &k));
    *count = static_cast<int64_t>(k);
    return Status::OK();
  }
  const auto tile_words = [&](size_t t) {
    return std::pair{t * kTileWords, std::min(num_words, (t + 1) * kTileWords)};
  };
  // Count pass (popcounts), then the exclusive scan into tile offsets.
  std::vector<size_t> offsets(NumTiles(n), 0);
  ADAMANT_RETURN_NOT_OK(RunTiles(ctx, n, label, [&](size_t t, size_t, size_t) {
    const auto [wb, we] = tile_words(t);
    size_t c = 0;
    for (size_t w = wb; w < we; ++w) {
      c += static_cast<size_t>(std::popcount(word(w)));
    }
    offsets[t] = c;
    return Status::OK();
  }));
  const size_t total = ExclusiveScan(&offsets);
  if (total > cap) {
    const size_t t = OverflowTile(offsets, cap);
    size_t k = offsets[t];
    ADAMANT_RETURN_NOT_OK(walk(tile_words(t).first, num_words, &k));
    return Status::Internal(std::string(what) + " overflow row not found");
  }
  ADAMANT_RETURN_NOT_OK(RunTiles(ctx, n, label, [&](size_t t, size_t, size_t) {
    const auto [wb, we] = tile_words(t);
    size_t k = offsets[t];
    return walk(wb, we, &k);
  }));
  *count = static_cast<int64_t>(total);
  return Status::OK();
}

/// Compaction over a row scan: scan(begin, end, emit) visits rows
/// [begin, end) in order and calls emit(i, values...) once per output of
/// row i, and write(k, i, values...) stores output k. At most `cap` outputs
/// fit; past that the launch fails with "<what> overflow at row i" for the
/// row of output cap + 1. On success *count receives the number of outputs,
/// which appear in row order.
template <typename Scan, typename Write>
Status Compact(KernelExecContext* ctx, size_t n, const char* label,
               size_t cap, const char* what, const Scan& scan,
               const Write& write, int64_t* count) {
  // Writes the outputs of rows [begin, end) from output k on; returns the
  // output count after them. *fail receives the row of output cap + 1.
  const auto run = [&](size_t begin, size_t end, size_t k, size_t* fail) {
    scan(begin, end, [&](size_t i, auto... values) {
      if (k < cap) {
        write(k, i, values...);
      } else if (k == cap) {
        *fail = i;
      }
      ++k;
    });
    return k;
  };
  size_t fail = 0;
  if (!RunsTiled(*ctx, n)) {
    const size_t k = run(0, n, 0, &fail);
    if (k > cap) return OverflowAt(what, fail);
    *count = static_cast<int64_t>(k);
    return Status::OK();
  }
  // Count pass, then the exclusive scan of tile counts into tile offsets.
  std::vector<size_t> offsets(NumTiles(n), 0);
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        size_t c = 0;
        scan(begin, end, [&](size_t, auto...) { ++c; });
        offsets[t] = c;
        return Status::OK();
      }));
  const size_t total = ExclusiveScan(&offsets);
  if (total > cap) {
    const size_t t = OverflowTile(offsets, cap);
    run(t * kTileElems, n, offsets[t], &fail);
    return OverflowAt(what, fail);
  }
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        run(begin, end, offsets[t], &fail);
        return Status::OK();
      }));
  *count = static_cast<int64_t>(total);
  return Status::OK();
}

/// Block fold: fold(begin, end, a) folds rows [begin, end) in order into
/// the aggregate a and returns it. The result goes to *acc, folded onto the
/// op's identity when `init`, else onto *acc. Tiles fold from the identity
/// and merge in tile order; int64 SUM/COUNT/MIN/MAX merges are associative,
/// so the result is the one-range left fold's.
template <typename RangeFold>
Status Fold(KernelExecContext* ctx, size_t n, const char* label, AggOp op,
            bool init, int64_t* acc, const RangeFold& fold) {
  int64_t a = init ? AggIdentity(op) : *acc;
  if (!RunsTiled(*ctx, n)) {
    *acc = fold(size_t{0}, n, a);
    return Status::OK();
  }
  std::vector<int64_t> partials(NumTiles(n), 0);
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        partials[t] = fold(begin, end, AggIdentity(op));
        return Status::OK();
      }));
  for (int64_t partial : partials) a = MergeAggPartials(op, a, partial);
  *acc = a;
  return Status::OK();
}

/// Tile scan over wrapping 32-bit sums: sum(begin, end) returns the sum of
/// rows [begin, end), and scan(begin, end, base) writes those rows' running
/// sums starting from `base`, the sum of every row before `begin`.
template <typename Sum, typename Scan>
Status ScanTiles(KernelExecContext* ctx, size_t n, const char* label,
                 const Sum& sum, const Scan& scan) {
  if (!RunsTiled(*ctx, n)) {
    scan(size_t{0}, n, uint32_t{0});
    return Status::OK();
  }
  std::vector<uint32_t> bases(NumTiles(n), 0);
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        bases[t] = sum(begin, end);
        return Status::OK();
      }));
  uint32_t running = 0;
  for (uint32_t& base : bases) {
    const uint32_t tile_sum = base;
    base = running;
    running += tile_sum;
  }
  return RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
    scan(begin, end, bases[t]);
    return Status::OK();
  });
}

}  // namespace adamant::kernels::internal

#endif  // ADAMANT_TASK_KERNELS_INTERNAL_H_
