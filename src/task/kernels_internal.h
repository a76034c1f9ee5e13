#ifndef ADAMANT_TASK_KERNELS_INTERNAL_H_
#define ADAMANT_TASK_KERNELS_INTERNAL_H_

/// Shared decoding, arithmetic and tiling of the Task-layer kernels
/// (kernels.cc, kernels_fused.cc). Each kernel decodes and validates its
/// launch once and hands its one row body to one of the four strategies
/// below. A strategy runs the body once over [0, n) when the launch's thread
/// budget is one thread or the launch holds fewer than two tiles, and
/// otherwise over kTileElems-row tiles on the shared task::WorkerPool, with
/// output and error messages bit-identical to the one-range run:
///
///   * ForEachTile: independent tiles (MAP, FILTER_BITMAP,
///     MATERIALIZE_POSITION; HASH_BUILD's hash pass).
///   * Compact: count -> exclusive offset -> compact, reporting the row the
///     one-range run fails on (FILTER_POSITION, MATERIALIZE, HASH_PROBE,
///     FUSED streams).
///   * Fold: per-tile folds merged by MergeAggPartials (AGG_BLOCK,
///     FUSED_AGG).
///   * ScanTiles: the three-pass tile scan (PREFIX_SUM).
///
/// Strategies take the body as a template argument, so the one-range path
/// compiles to the plain loop.

#include <algorithm>
#include <cstdint>
#include <string>
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

inline int64_t LoadAs64(const void* ptr, ElementType type, size_t i) {
  return type == ElementType::kInt32
             ? static_cast<const int32_t*>(ptr)[i]
             : static_cast<const int64_t*>(ptr)[i];
}

inline void StoreFrom64(void* ptr, ElementType type, size_t i, int64_t value) {
  if (type == ElementType::kInt32) {
    static_cast<int32_t*>(ptr)[i] = static_cast<int32_t>(value);
  } else {
    static_cast<int64_t*>(ptr)[i] = value;
  }
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

inline int64_t AggIdentity(AggOp op) {
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

inline int64_t AggCombine(AggOp op, int64_t acc, int64_t value) {
  switch (op) {
    case AggOp::kSum:
      return acc + value;
    case AggOp::kCount:
      return acc + 1;
    case AggOp::kMin:
      return value < acc ? value : acc;
    case AggOp::kMax:
      return value > acc ? value : acc;
  }
  return acc;
}

inline bool Compare(CmpOp op, int64_t v, int64_t lo, int64_t hi) {
  switch (op) {
    case CmpOp::kLt:
      return v < lo;
    case CmpOp::kLe:
      return v <= lo;
    case CmpOp::kGt:
      return v > lo;
    case CmpOp::kGe:
      return v >= lo;
    case CmpOp::kEq:
      return v == lo;
    case CmpOp::kNe:
      return v != lo;
    case CmpOp::kBetween:
      return lo <= v && v <= hi;
    case CmpOp::kInPair:
      return v == lo || v == hi;
  }
  return false;
}

/// The MAP arithmetic of the map kernel and the fused interpreter: `op` over
/// `a`, the immediate `imm` and `b()`, the second operand of the ops that
/// read a second column (for the percentage ops an int32 percentage).
/// kNeqPrev is the map kernel's alone: its b() is the previous row's value,
/// or `a` on row 0.
template <typename SecondOperand>
inline int64_t ApplyMap(MapOp op, int64_t a, int64_t imm,
                        const SecondOperand& b) {
  switch (op) {
    case MapOp::kAddScalar:
      return a + imm;
    case MapOp::kSubScalar:
      return a - imm;
    case MapOp::kMulScalar:
      return a * imm;
    case MapOp::kAddCol:
      return a + b();
    case MapOp::kSubCol:
      return a - b();
    case MapOp::kMulCol:
      return a * b();
    case MapOp::kMulPctComplement:
      // Fixed-point price * (1 - discount).
      return a * (100 - b()) / 100;
    case MapOp::kMulPct:
      return a * b() / 100;
    case MapOp::kMulPctPlus:
      return a * (100 + b()) / 100;
    case MapOp::kIdentity:
      return a;
    case MapOp::kNeqPrev:
      return a != b() ? 1 : 0;
  }
  return 0;
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

/// Tile size (tuples): a power of two and a multiple of 64, so every
/// FILTER_BITMAP tile owns whole bitmap words.
constexpr size_t kTileElems = 16384;

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

/// Compaction: row(i, emit) calls emit(values...) once per output of row i,
/// in order, and write(k, values...) stores output k. At most `cap`
/// outputs fit; past that the launch fails with "<what> overflow at row i"
/// for the row the one-range run fails on. On success *count receives the
/// number of outputs, which appear in row order.
template <typename Row, typename Write>
Status Compact(KernelExecContext* ctx, size_t n, const char* label,
               size_t cap, const char* what, const Row& row,
               const Write& write, int64_t* count) {
  const auto overflow_at = [what](size_t i) {
    return Status::ExecutionError(std::string(what) + " overflow at row " +
                                  std::to_string(i));
  };
  if (!RunsTiled(*ctx, n)) {
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      row(i, [&](auto... values) {
        if (k < cap) write(k, values...);
        ++k;
      });
      if (k > cap) return overflow_at(i);
    }
    *count = static_cast<int64_t>(k);
    return Status::OK();
  }
  // Count pass, then the exclusive scan of tile counts into tile offsets.
  std::vector<size_t> offsets(NumTiles(n), 0);
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        size_t c = 0;
        for (size_t i = begin; i < end; ++i) row(i, [&](auto...) { ++c; });
        offsets[t] = c;
        return Status::OK();
      }));
  size_t total = 0;
  for (size_t& offset : offsets) {
    const size_t tile_count = offset;
    offset = total;
    total += tile_count;
  }
  if (total > cap) {
    // The failing row emits output cap + 1; it lies in the last tile that
    // starts at or below cap.
    size_t t = offsets.size() - 1;
    while (offsets[t] > cap) --t;
    size_t k = offsets[t];
    for (size_t i = t * kTileElems; i < n; ++i) {
      row(i, [&](auto...) { ++k; });
      if (k > cap) return overflow_at(i);
    }
    return Status::Internal(std::string(what) + " overflow row not found");
  }
  ADAMANT_RETURN_NOT_OK(
      RunTiles(ctx, n, label, [&](size_t t, size_t begin, size_t end) {
        size_t k = offsets[t];
        for (size_t i = begin; i < end; ++i) {
          row(i, [&](auto... values) { write(k++, values...); });
        }
        return Status::OK();
      }));
  *count = static_cast<int64_t>(total);
  return Status::OK();
}

/// Block fold: row(i, a) folds row i into the aggregate a. The result goes
/// to *acc, folded onto the op's identity when `init`, else onto *acc.
/// Tiles fold from the identity and merge in tile order; int64
/// SUM/COUNT/MIN/MAX merges are associative, so the result is the
/// one-range left fold's.
template <typename Row>
Status Fold(KernelExecContext* ctx, size_t n, const char* label, AggOp op,
            bool init, int64_t* acc, const Row& row) {
  const auto fold = [&](size_t begin, size_t end, int64_t a) {
    for (size_t i = begin; i < end; ++i) a = row(i, a);
    return a;
  };
  int64_t a = init ? AggIdentity(op) : *acc;
  if (!RunsTiled(*ctx, n)) {
    *acc = fold(0, n, a);
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
