#ifndef ADAMANT_TASK_PRIMITIVE_H_
#define ADAMANT_TASK_PRIMITIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace adamant {

/// The granular database primitives of Table I. A database operator (e.g. a
/// hash join) is composed from these; any implementation adhering to the
/// signature can be plugged in per device/SDK.
enum class PrimitiveKind : uint8_t {
  kMap = 0,
  kAggBlock,
  kHashAgg,
  kHashBuild,
  kHashProbe,
  kSortAgg,
  kFilterBitmap,
  kFilterPosition,
  kPrefixSum,
  kMaterialize,
  kMaterializePosition,
  /// Composite single-pass primitive produced by plan::FusionPass: a
  /// map/filter/materialize chain collapsed into one traversal. Streaming
  /// (compacting) form; the recipe lives in NodeConfig::fused_steps.
  kFused,
  /// Composite single-pass primitive whose terminal is a block aggregate;
  /// a pipeline breaker like AGG_BLOCK.
  kFusedAgg,
};

constexpr int kNumPrimitiveKinds = 13;

/// I/O semantics of primitive inputs/outputs (Section III-B3). The runtime
/// uses these on data edges to pick the right downstream primitive (e.g. a
/// BITMAP filter result must flow into MATERIALIZE, a POSITION result into
/// MATERIALIZE_POSITION).
enum class DataSemantic : uint8_t {
  kNumeric = 0,
  kBitmap,
  kPosition,
  kPrefixSum,
  kHashTable,
  kGeneric,
};

const char* PrimitiveKindName(PrimitiveKind kind);
const char* DataSemanticName(DataSemantic semantic);

/// Functional signature of a primitive: the semantics of its data inputs and
/// outputs, and whether it breaks a query pipeline (materializing its result
/// in device memory — marked with a dagger in Table I).
struct PrimitiveSignature {
  PrimitiveKind kind;
  /// Kernel/cost-profile name ("map", "hash_build", ...).
  const char* kernel_name;
  std::vector<DataSemantic> inputs;
  std::vector<DataSemantic> outputs;
  bool pipeline_breaker;
  /// Writes a fresh row count, so its output holds input rows times the
  /// node's NodeConfig::selectivity: that sizes its output buffers, its
  /// measured rows out and its selectivity feedback.
  bool sized_by_selectivity;
};

/// Signature of `kind` per Table I.
const PrimitiveSignature& GetSignature(PrimitiveKind kind);

/// All signatures, in PrimitiveKind order.
const std::vector<PrimitiveSignature>& AllSignatures();

/// Validates that the produced semantics `from` may feed input slot
/// `input_index` of `to` (the I/O definitions of Section III-B3).
Status ValidateEdge(DataSemantic from, PrimitiveKind to, size_t input_index);

// ---------------------------------------------------------------------------
// Operation codes passed as scalar kernel arguments.
// ---------------------------------------------------------------------------

/// Map operations (one-to-one, Table I: "e.g. arithmetic operation").
enum class MapOp : int64_t {
  kAddScalar = 0,  // out = in0 + imm
  kSubScalar,      // out = in0 - imm
  kMulScalar,      // out = in0 * imm
  kAddCol,         // out = in0 + in1
  kSubCol,         // out = in0 - in1
  kMulCol,         // out = in0 * in1
  /// out = in0 * (100 - in1) / 100; fixed-point "price * (1 - discount)"
  /// with in1 a percentage. Exercised by TPC-H Q3/Q6 revenue.
  kMulPctComplement,
  /// out = in0 * in1 / 100; fixed-point "price * discount".
  kMulPct,
  /// out = in0 * (100 + in1) / 100; fixed-point "price * (1 + tax)".
  kMulPctPlus,
  /// out = in0 (with optional widening cast).
  kIdentity,
  /// out[i] = (i > 0 && in0[i] != in0[i-1]) ? 1 : 0 — group-boundary flags
  /// over sorted keys; PREFIX_SUM over them yields SORT_AGG group indices.
  kNeqPrev,
};

/// True for the percentage ops, whose second column is an int32
/// percentage.
constexpr bool IsPercentMap(MapOp op) {
  return op == MapOp::kMulPctComplement || op == MapOp::kMulPct ||
         op == MapOp::kMulPctPlus;
}

/// True for the ops that read a second column (in1).
constexpr bool MapReadsSecondColumn(MapOp op) {
  return op == MapOp::kAddCol || op == MapOp::kSubCol ||
         op == MapOp::kMulCol || IsPercentMap(op);
}

/// Comparison operations for filters.
enum class CmpOp : int64_t {
  kLt = 0,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  /// lo <= in && in <= hi (inclusive).
  kBetween,
  /// in == lo || in == hi (two-element IN list, e.g. TPC-H Q12's
  /// l_shipmode IN ('MAIL', 'SHIP') over dictionary codes).
  kInPair,
};

/// Block/group aggregation functions.
enum class AggOp : int64_t {
  kSum = 0,
  kCount,
  kMin,
  kMax,
};

/// hash_probe emission modes.
enum class ProbeMode : int64_t {
  /// Emit every matching build-side entry (inner join).
  kAll = 0,
  /// Emit at most one match per probe key (semi join / EXISTS).
  kSemi,
};

// ---------------------------------------------------------------------------
// Fused-recipe steps (FUSED / FUSED_AGG composite primitives).
// ---------------------------------------------------------------------------

/// One step of a fused recipe. The fused kernel is a register machine: step
/// `s` writes register `s` (loads and maps produce values; filters AND into
/// the row predicate), and the single terminal step emits or aggregates.
/// A row meets the steps in recipe (topological) order with predicate
/// short-circuiting, which is exactly the row's fate in the unfused chain:
/// a row dropped by a filter never reaches downstream map arithmetic. (The
/// kernel runs each step over a batch of rows, kernels_fused.h.)
struct FusedStep {
  enum class Op : int64_t {
    /// reg = load(input buffer `a`) as ElementType `b`.
    kLoad = 0,
    /// pred &= Compare(CmpOp `a`, reg[src0], lo=`b`, hi=`c`).
    kFilter,
    /// reg = MapOp `a` over reg[src0] (and reg[src1] for column-column
    /// ops, imm=`b` for scalar ops), truncated to ElementType `c` — the
    /// store/load round-trip the unfused chain performs between kernels.
    kMap,
    /// Terminal (FUSED): if pred, out[k++] = reg[src0] as ElementType `a`.
    kEmit,
    /// Terminal (FUSED_AGG): if pred, acc = combine(AggOp `a`, acc,
    /// reg[src0]).
    kAgg,
  };
  Op op = Op::kLoad;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  int32_t src0 = -1;
  int32_t src1 = -1;
};

/// Scalars per encoded step in the fused kernel's argument list.
constexpr size_t kFusedStepScalars = 6;

const char* FusedStepOpName(FusedStep::Op op);

/// Number of input buffers a recipe reads (max load index + 1).
size_t FusedNumInputs(const std::vector<FusedStep>& steps);

/// Compact recipe description for labels and trace spans, e.g.
/// "filter+filter+map+agg" (loads omitted).
std::string FusedRecipeLabel(const std::vector<FusedStep>& steps);

}  // namespace adamant

#endif  // ADAMANT_TASK_PRIMITIVE_H_
