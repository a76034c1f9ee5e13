#ifndef ADAMANT_PLAN_LOGICAL_PLAN_H_
#define ADAMANT_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "storage/types.h"
#include "task/primitive.h"

namespace adamant::plan {

/// A deliberately small logical algebra — the shape of plan an optimizer
/// hands to ADAMANT (Fig. 2: "query plan" entering the runtime). The
/// lowering pass (lowering.h) translates a tree of these into an annotated
/// primitive graph; every construct maps onto the Table-I primitive
/// repertoire.

/// A computed column: out = op(a [, b] [, imm]), limited to the MAP
/// kernel's operation set.
struct ScalarExpr {
  MapOp op = MapOp::kIdentity;
  std::string a;   // first input column
  std::string b;   // second input column (column-column ops)
  int64_t imm = 0;
  ElementType out_type = ElementType::kInt64;

  static ScalarExpr Identity(std::string col, ElementType out_type) {
    return {MapOp::kIdentity, std::move(col), {}, 0, out_type};
  }
  static ScalarExpr SubCol(std::string a, std::string b,
                           ElementType out_type = ElementType::kInt32) {
    return {MapOp::kSubCol, std::move(a), std::move(b), 0, out_type};
  }
  static ScalarExpr AddCol(std::string a, std::string b,
                           ElementType out_type = ElementType::kInt32) {
    return {MapOp::kAddCol, std::move(a), std::move(b), 0, out_type};
  }
  static ScalarExpr MulScalar(std::string a, int64_t imm,
                              ElementType out_type = ElementType::kInt64) {
    return {MapOp::kMulScalar, std::move(a), {}, imm, out_type};
  }
  /// price * (1 - pct/100) — fixed-point money x percentage.
  static ScalarExpr MulPctComplement(std::string money, std::string pct) {
    return {MapOp::kMulPctComplement, std::move(money), std::move(pct), 0,
            ElementType::kInt64};
  }
  /// price * pct/100.
  static ScalarExpr MulPct(std::string money, std::string pct) {
    return {MapOp::kMulPct, std::move(money), std::move(pct), 0,
            ElementType::kInt64};
  }
  /// price * (1 + pct/100).
  static ScalarExpr MulPctPlus(std::string money, std::string pct) {
    return {MapOp::kMulPctPlus, std::move(money), std::move(pct), 0,
            ElementType::kInt64};
  }
};

/// A conjunctive predicate term over one column. `selectivity` is the
/// optimizer's estimate, used for output-buffer sizing downstream.
struct Predicate {
  std::string column;
  CmpOp op = CmpOp::kLt;
  int64_t lo = 0;
  int64_t hi = 0;
  double selectivity = 0.5;

  static Predicate Lt(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kLt, v, 0, sel};
  }
  static Predicate Le(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kLe, v, 0, sel};
  }
  static Predicate Gt(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kGt, v, 0, sel};
  }
  static Predicate Ge(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kGe, v, 0, sel};
  }
  static Predicate Eq(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kEq, v, 0, sel};
  }
  static Predicate Ne(std::string col, int64_t v, double sel) {
    return {std::move(col), CmpOp::kNe, v, 0, sel};
  }
  static Predicate Between(std::string col, int64_t lo, int64_t hi,
                           double sel) {
    return {std::move(col), CmpOp::kBetween, lo, hi, sel};
  }
  static Predicate InPair(std::string col, int64_t a, int64_t b, double sel) {
    return {std::move(col), CmpOp::kInPair, a, b, sel};
  }
};

/// One aggregate of a GroupBy/Reduce. COUNT leaves `value_column` empty.
struct AggSpec {
  AggOp op = AggOp::kSum;
  std::string value_column;
  std::string output_name;
};

class LogicalNode;
using LogicalNodePtr = std::shared_ptr<const LogicalNode>;

/// One operator of the logical plan tree.
class LogicalNode {
 public:
  enum class Kind : uint8_t {
    kScan,     // leaf: a base table
    kFilter,   // conjunctive predicates over the child
    kProject,  // adds computed columns to the child's stream
    kHashJoin, // build side + probe side, single int32 key each
    kGroupBy,  // keyed aggregation (pipeline sink)
    kReduce,   // ungrouped aggregation (pipeline sink)
  };

  Kind kind = Kind::kScan;

  // kScan
  std::string table;

  // kFilter
  std::vector<Predicate> predicates;

  // kProject
  std::vector<std::pair<std::string, ScalarExpr>> projections;

  // kHashJoin: `child` is the probe side, `build` the build side. Only
  // probe-side columns survive the join (the build side contributes the
  // existence/payload semantics) — sufficient for FK joins whose build
  // attributes are re-attached in the host finish, like the paper's plans.
  LogicalNodePtr build;
  std::string build_key;
  std::string probe_key;
  ProbeMode join_mode = ProbeMode::kAll;
  /// Estimated join output cardinality as a fraction of probe input.
  double join_selectivity = 0.5;

  // kGroupBy / kReduce
  std::string group_key;
  std::vector<AggSpec> aggregates;
  double expected_groups = 0;
  bool groups_scale_with_data = true;

  // unary child (filter/project/group/reduce) and probe side (join)
  LogicalNodePtr child;
};

// --- Tree builders ---

LogicalNodePtr Scan(std::string table);
LogicalNodePtr Filter(LogicalNodePtr child, std::vector<Predicate> predicates);
LogicalNodePtr Project(LogicalNodePtr child,
                       std::vector<std::pair<std::string, ScalarExpr>> exprs);
LogicalNodePtr HashJoin(LogicalNodePtr probe, LogicalNodePtr build,
                        std::string probe_key, std::string build_key,
                        ProbeMode mode, double join_selectivity);
LogicalNodePtr GroupBy(LogicalNodePtr child, std::string key,
                       std::vector<AggSpec> aggregates, double expected_groups,
                       bool groups_scale_with_data = true);
LogicalNodePtr Reduce(LogicalNodePtr child, std::vector<AggSpec> aggregates);

// --- Two-column group keys ---
//
// The one packing and sizing rule of a two-column GROUP BY, shared by the
// SQL planner and the hand-built plans. Both columns hold small
// non-negative codes (dictionary codes, flags); they pack into one int32
// key = hi * GroupKeyModulus(lo_domain) + lo, and the aggregation table is
// sized for PackedGroupCount(hi_domain, lo_domain) groups.

/// The power of two the high column is scaled by: the smallest one that
/// covers the low column's domain, and at least 8. With the modulus 2 a
/// two-value low column would get, TPC-H Q1's four live groups take slots
/// 0, 5, 6 and 7 of its 16-slot table, where its HASH_AGG measured about
/// 2x slower than at modulus 8 (docs/sql.md).
int64_t GroupKeyModulus(int64_t lo_domain);

/// Domain size of a group-key column: its dictionary's size for a
/// dictionary column, else its largest value + 1. Negative values cannot
/// be packed.
Result<int64_t> GroupKeyDomain(const Table& table, const std::string& column);

/// Groups a packed key can take, which sizes its table
/// (HashTableLayout::SlotsFor) and prices its contention.
double PackedGroupCount(int64_t hi_domain, int64_t lo_domain);

/// The (hi, lo) codes of a packed key.
std::pair<int64_t, int64_t> UnpackGroupKey(int32_t key, int64_t modulus);

/// Human-readable plan tree (EXPLAIN-style), for docs and debugging.
std::string ExplainPlan(const LogicalNode& root);

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_LOGICAL_PLAN_H_
