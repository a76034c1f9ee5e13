#include "plan/interpreter.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace adamant::plan {

namespace {

/// One row of `expr`; `prev` is the previous row's `a`, null on row 0.
int64_t ApplyExpr(const ScalarExpr& expr, int64_t a, int64_t b,
                  const int64_t* prev) {
  switch (expr.op) {
    case MapOp::kAddScalar:
      return a + expr.imm;
    case MapOp::kSubScalar:
      return a - expr.imm;
    case MapOp::kMulScalar:
      return a * expr.imm;
    case MapOp::kAddCol:
      return a + b;
    case MapOp::kSubCol:
      return a - b;
    case MapOp::kMulCol:
      return a * b;
    case MapOp::kMulPctComplement:
      return a * (100 - b) / 100;
    case MapOp::kMulPct:
      return a * b / 100;
    case MapOp::kMulPctPlus:
      return a * (100 + b) / 100;
    case MapOp::kIdentity:
      return a;
    case MapOp::kNeqPrev:
      return prev != nullptr && a != *prev ? 1 : 0;
  }
  return 0;
}

/// The rows of `s` at `rows` (ascending, repeats allowed), each column
/// gathered once.
InterpreterStream Gather(const InterpreterStream& s,
                         const std::vector<size_t>& rows) {
  InterpreterStream out;
  out.rows = rows.size();
  for (const auto& [name, values] : s.cols) {
    std::vector<int64_t>& column = out.cols[name];
    column.reserve(rows.size());
    for (size_t row : rows) column.push_back(values[row]);
  }
  return out;
}

}  // namespace

std::vector<int64_t> InterpretExpr(const ScalarExpr& expr,
                                   const InterpreterStream& s) {
  const std::vector<int64_t>& a = s.cols.at(expr.a);
  // Scalar ops never read `b`.
  const std::vector<int64_t>& b =
      MapReadsSecondColumn(expr.op) ? s.cols.at(expr.b) : a;
  std::vector<int64_t> out(s.rows);
  for (size_t i = 0; i < s.rows; ++i) {
    out[i] = ApplyExpr(expr, a[i], b[i], i > 0 ? &a[i - 1] : nullptr);
  }
  return out;
}

bool InterpretPredicate(const Predicate& pred, int64_t v) {
  switch (pred.op) {
    case CmpOp::kLt:
      return v < pred.lo;
    case CmpOp::kLe:
      return v <= pred.lo;
    case CmpOp::kGt:
      return v > pred.lo;
    case CmpOp::kGe:
      return v >= pred.lo;
    case CmpOp::kEq:
      return v == pred.lo;
    case CmpOp::kNe:
      return v != pred.lo;
    case CmpOp::kBetween:
      return pred.lo <= v && v <= pred.hi;
    case CmpOp::kInPair:
      return v == pred.lo || v == pred.hi;
  }
  return false;
}

Result<InterpreterStream> InterpretScan(const LogicalNode& scan,
                                        const Catalog& catalog, size_t every,
                                        const std::set<std::string>* only) {
  ADAMANT_DCHECK(every > 0);
  ADAMANT_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(scan.table));
  InterpreterStream s;
  const size_t n = table->num_rows();
  s.rows = n == 0 ? 0 : (n - 1) / every + 1;
  for (const ColumnPtr& column : table->columns()) {
    if (only != nullptr && !only->contains(column->name())) continue;
    std::vector<int64_t>& out = s.cols[column->name()];
    out.resize(s.rows);
    for (size_t r = 0; r < s.rows; ++r) {
      out[r] = column->type() == ElementType::kInt32
                   ? column->Value<int32_t>(r * every)
                   : column->Value<int64_t>(r * every);
    }
  }
  return s;
}

InterpreterStream InterpretFilter(const LogicalNode& filter,
                                  const InterpreterStream& in,
                                  std::vector<size_t>* term_rows) {
  std::vector<size_t> rows(in.rows);
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (const Predicate& pred : filter.predicates) {
    const std::vector<int64_t>& values = in.cols.at(pred.column);
    std::erase_if(rows, [&](size_t row) {
      return !InterpretPredicate(pred, values[row]);
    });
    if (term_rows != nullptr) term_rows->push_back(rows.size());
  }
  return Gather(in, rows);
}

InterpreterStream InterpretJoin(const LogicalNode& join,
                                const InterpreterStream& build,
                                const InterpreterStream& probe,
                                size_t* distinct_build_keys) {
  std::unordered_map<int64_t, size_t> build_count;
  for (int64_t key : build.cols.at(join.build_key)) ++build_count[key];
  std::vector<size_t> rows;
  const std::vector<int64_t>& keys = probe.cols.at(join.probe_key);
  for (size_t row = 0; row < keys.size(); ++row) {
    auto it = build_count.find(keys[row]);
    if (it == build_count.end()) continue;
    rows.insert(rows.end(),
                join.join_mode == ProbeMode::kSemi ? 1 : it->second, row);
  }
  if (distinct_build_keys != nullptr) {
    *distinct_build_keys = build_count.size();
  }
  return Gather(probe, rows);
}

Result<InterpreterStream> InterpretStream(const LogicalNode& node,
                                          const Catalog& catalog) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan:
      return InterpretScan(node, catalog);
    case LogicalNode::Kind::kFilter: {
      ADAMANT_ASSIGN_OR_RETURN(InterpreterStream in,
                               InterpretStream(*node.child, catalog));
      return InterpretFilter(node, in);
    }
    case LogicalNode::Kind::kProject: {
      ADAMANT_ASSIGN_OR_RETURN(InterpreterStream s,
                               InterpretStream(*node.child, catalog));
      for (const auto& [name, expr] : node.projections) {
        s.cols[name] = InterpretExpr(expr, s);
      }
      return s;
    }
    case LogicalNode::Kind::kHashJoin: {
      ADAMANT_ASSIGN_OR_RETURN(InterpreterStream build,
                               InterpretStream(*node.build, catalog));
      ADAMANT_ASSIGN_OR_RETURN(InterpreterStream probe,
                               InterpretStream(*node.child, catalog));
      return InterpretJoin(node, build, probe);
    }
    case LogicalNode::Kind::kGroupBy:
    case LogicalNode::Kind::kReduce:
      return Status::InvalidArgument(
          "InterpretStream cannot evaluate a sink; use InterpretPlan");
  }
  return Status::Internal("unknown logical node kind");
}

Result<InterpreterResults> InterpretPlan(const LogicalNode& root,
                                         const Catalog& catalog) {
  if (root.kind != LogicalNode::Kind::kGroupBy &&
      root.kind != LogicalNode::Kind::kReduce) {
    return Status::InvalidArgument("plan root must be a GroupBy or Reduce");
  }
  ADAMANT_ASSIGN_OR_RETURN(InterpreterStream s,
                           InterpretStream(*root.child, catalog));
  InterpreterResults results;
  for (const AggSpec& agg : root.aggregates) {
    std::map<int32_t, int64_t> groups;
    for (size_t row = 0; row < s.rows; ++row) {
      const int32_t key =
          root.kind == LogicalNode::Kind::kGroupBy
              ? static_cast<int32_t>(s.cols.at(root.group_key)[row])
              : 0;
      const int64_t v =
          agg.op == AggOp::kCount ? 0 : s.cols.at(agg.value_column)[row];
      auto [it, inserted] = groups.try_emplace(key, 0);
      if (inserted) {
        it->second = agg.op == AggOp::kMin   ? INT64_MAX
                     : agg.op == AggOp::kMax ? INT64_MIN
                                             : 0;
      }
      switch (agg.op) {
        case AggOp::kSum:
          it->second += v;
          break;
        case AggOp::kCount:
          it->second += 1;
          break;
        case AggOp::kMin:
          it->second = std::min(it->second, v);
          break;
        case AggOp::kMax:
          it->second = std::max(it->second, v);
          break;
      }
    }
    if (root.kind == LogicalNode::Kind::kReduce && groups.empty()) {
      groups[0] = agg.op == AggOp::kMin   ? INT64_MAX
                  : agg.op == AggOp::kMax ? INT64_MIN
                                          : 0;
    }
    results[agg.output_name] = std::move(groups);
  }
  return results;
}

}  // namespace adamant::plan
