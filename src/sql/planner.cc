#include "sql/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>

#include "plan/interpreter.h"
#include "plan/selectivity.h"

namespace adamant::sql {

namespace {

using plan::AggSpec;
using plan::LogicalNodePtr;
using plan::ScalarExpr;

int64_t CellValue(const Column& col, size_t i) {
  switch (col.type()) {
    case ElementType::kInt32: return col.Value<int32_t>(i);
    case ElementType::kInt64: return col.Value<int64_t>(i);
    case ElementType::kFloat64:
      return static_cast<int64_t>(col.Value<double>(i));
  }
  return 0;
}

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

/// One node of the oriented join tree: the table plus the build sides that
/// hang off its probe stream.
struct TreeEdge {
  int child = -1;
  std::string parent_key;
  std::string child_key;
  ProbeMode mode = ProbeMode::kAll;
  double sel = 0.5;  // estimated fraction of parent rows surviving
};

struct TreeNode {
  std::vector<TreeEdge> children;
  double est_out = 0;  // estimated subtree output cardinality
};

class Planner {
 public:
  Planner(BoundQuery bound, const Catalog& catalog,
          const PlannerOptions& options)
      : bound_(std::move(bound)), catalog_(catalog), options_(options) {}

  Result<CompiledQuery> Plan() {
    ADAMANT_RETURN_NOT_OK(PickFactTable());
    NormalizePredicates();
    ADAMANT_RETURN_NOT_OK(EstimateScans());
    ADAMANT_RETURN_NOT_OK(BuildJoinTree());
    EstimateTree(bound_.fact_table);
    LoadCostRates();
    OrderBuilds(bound_.fact_table);

    CompiledQuery out;
    RecordJoinOrder(bound_.fact_table, &out);
    ADAMANT_ASSIGN_OR_RETURN(LogicalNodePtr stream,
                             EmitStream(bound_.fact_table));
    ADAMANT_ASSIGN_OR_RETURN(stream, EmitFactProjections(stream, &out));
    ADAMANT_ASSIGN_OR_RETURN(LogicalNodePtr root, EmitSink(stream, nullptr));
    ADAMANT_ASSIGN_OR_RETURN(
        out.plan,
        plan::AnnotateSelectivities(*root, catalog_, options_.sample_every));
    // EXPLAIN ANALYZE feedback: observed step selectivities from earlier
    // runs of this query override the sampled estimates.
    if (options_.feedback != nullptr && !options_.feedback_name.empty()) {
      out.plan = options_.feedback->ApplyToLogicalPlan(options_.feedback_name,
                                                       out.plan);
    }

    out.grouped = !bound_.group_by.empty();
    out.group_by = bound_.group_by;
    out.aggregates = bound_.aggregates;
    out.outputs = bound_.outputs;
    out.order_by = bound_.order_by;
    out.limit = bound_.limit;
    out.fact_table = bound_.tables[bound_.fact_table].name;
    return out;
  }

 private:
  // --- fact table ---------------------------------------------------------

  Status PickFactTable() {
    if (bound_.fact_table >= 0) return Status::OK();
    // No output references a column (e.g. a bare COUNT(*)): aggregate over
    // the largest table, which is the probe-side chain the IR favors.
    size_t best_rows = 0;
    for (size_t i = 0; i < bound_.tables.size(); ++i) {
      if (bound_.tables[i].semi_only) continue;
      if (bound_.fact_table < 0 ||
          bound_.tables[i].table->num_rows() > best_rows) {
        bound_.fact_table = static_cast<int>(i);
        best_rows = bound_.tables[i].table->num_rows();
      }
    }
    if (bound_.fact_table < 0) {
      return Status::InvalidArgument("query references no table");
    }
    return Status::OK();
  }

  // --- predicate normalization -------------------------------------------

  /// Merges a lower bound (>= / >) and an upper bound (< / <=) on the same
  /// column into one inclusive BETWEEN — the single-FILTER shape the
  /// hand-built plans use for date windows. All column encodings are
  /// integers, so `> lo` is `>= lo+1` and `< hi` is `<= hi-1`.
  void NormalizePredicates() {
    auto lower_of = [](const plan::Predicate& p) -> std::optional<int64_t> {
      if (p.op == CmpOp::kGe) return p.lo;
      if (p.op == CmpOp::kGt) return p.lo + 1;
      return std::nullopt;
    };
    auto upper_of = [](const plan::Predicate& p) -> std::optional<int64_t> {
      if (p.op == CmpOp::kLe) return p.lo;
      if (p.op == CmpOp::kLt) return p.lo - 1;
      return std::nullopt;
    };
    for (BoundTable& table : bound_.tables) {
      for (size_t i = 0; i < table.predicates.size(); ++i) {
        const auto lo = lower_of(table.predicates[i].pred);
        const auto hi = upper_of(table.predicates[i].pred);
        if (!lo && !hi) continue;
        for (size_t j = i + 1; j < table.predicates.size(); ++j) {
          if (table.predicates[j].pred.column !=
              table.predicates[i].pred.column) {
            continue;
          }
          const auto other =
              lo ? upper_of(table.predicates[j].pred)
                 : lower_of(table.predicates[j].pred);
          if (!other) continue;
          const int64_t lo_v = lo ? *lo : *other;
          const int64_t hi_v = lo ? *other : *hi;
          table.predicates[i].pred =
              plan::Predicate::Between(table.predicates[i].pred.column, lo_v,
                                       hi_v, 0.5);
          table.predicates.erase(table.predicates.begin() +
                                 static_cast<long>(j));
          break;
        }
      }
    }
  }

  // --- cardinality estimation --------------------------------------------

  /// Systematic sampling over a table's pushed-down predicates: sets each
  /// predicate's selectivity and the table's filtered-row estimate. This is
  /// the planner's own coarse pass for join ordering; the emitted plan is
  /// refined again by plan::AnnotateSelectivities.
  Status EstimateScans() {
    est_rows_.resize(bound_.tables.size(), 0);
    for (size_t t = 0; t < bound_.tables.size(); ++t) {
      BoundTable& table = bound_.tables[t];
      const size_t rows = table.table->num_rows();
      if (table.predicates.empty() || rows == 0) {
        est_rows_[t] = static_cast<double>(rows);
        continue;
      }
      struct PredCols {
        ColumnPtr value;       // plain predicates
        ColumnPtr lhs, rhs;    // difference predicates
      };
      std::vector<PredCols> cols(table.predicates.size());
      for (size_t p = 0; p < table.predicates.size(); ++p) {
        const BoundPredicate& pred = table.predicates[p];
        if (pred.needs_diff) {
          ADAMANT_ASSIGN_OR_RETURN(cols[p].lhs,
                                   table.table->GetColumn(pred.diff_lhs));
          ADAMANT_ASSIGN_OR_RETURN(cols[p].rhs,
                                   table.table->GetColumn(pred.diff_rhs));
        } else {
          ADAMANT_ASSIGN_OR_RETURN(cols[p].value,
                                   table.table->GetColumn(pred.pred.column));
        }
      }
      const size_t stride = std::max<size_t>(1, rows / 2048);
      std::vector<size_t> matched(table.predicates.size(), 0);
      size_t sampled = 0;
      size_t all = 0;
      for (size_t i = 0; i < rows; i += stride, ++sampled) {
        bool every = true;
        for (size_t p = 0; p < table.predicates.size(); ++p) {
          const int64_t v =
              table.predicates[p].needs_diff
                  ? CellValue(*cols[p].lhs, i) - CellValue(*cols[p].rhs, i)
                  : CellValue(*cols[p].value, i);
          const bool m =
              plan::InterpretPredicate(table.predicates[p].pred, v);
          matched[p] += m;
          every = every && m;
        }
        all += every;
      }
      for (size_t p = 0; p < table.predicates.size(); ++p) {
        table.predicates[p].pred.selectivity = Clamp(
            static_cast<double>(matched[p]) / static_cast<double>(sampled),
            0.01, 1.0);
      }
      est_rows_[t] = static_cast<double>(rows) *
                     std::max<double>(static_cast<double>(all), 0.25) /
                     static_cast<double>(sampled);
    }
    return Status::OK();
  }

  // --- join tree ----------------------------------------------------------

  Status BuildJoinTree() {
    tree_.assign(bound_.tables.size(), TreeNode{});
    std::vector<std::vector<size_t>> adjacency(bound_.tables.size());
    for (size_t j = 0; j < bound_.joins.size(); ++j) {
      adjacency[bound_.joins[j].left_table].push_back(j);
      adjacency[bound_.joins[j].right_table].push_back(j);
    }
    std::vector<bool> visited(bound_.tables.size(), false);
    std::vector<bool> used(bound_.joins.size(), false);
    std::vector<int> queue = {bound_.fact_table};
    visited[bound_.fact_table] = true;
    while (!queue.empty()) {
      const int t = queue.back();
      queue.pop_back();
      for (size_t j : adjacency[t]) {
        if (used[j]) {
          continue;
        }
        const BoundJoin& join = bound_.joins[j];
        const int other = join.left_table == t ? join.right_table
                                               : join.left_table;
        if (visited[other]) {
          return Status::NotSupported(
              join.pos.ToString() +
              ": cyclic join graphs are not supported (the IR lowers "
              "probe-side chains)");
        }
        used[j] = true;
        visited[other] = true;
        TreeEdge edge;
        edge.child = other;
        edge.parent_key = join.left_table == t ? join.left_key : join.right_key;
        edge.child_key = join.left_table == t ? join.right_key : join.left_key;
        edge.mode = join.mode;
        tree_[t].children.push_back(edge);
        queue.push_back(other);
      }
    }
    for (size_t t = 0; t < bound_.tables.size(); ++t) {
      if (!visited[t]) {
        return Status::NotSupported(
            "table '" + bound_.tables[t].alias +
            "' is not connected to the join graph (cross joins are not "
            "supported)");
      }
    }
    return Status::OK();
  }

  void EstimateTree(int t) {
    double out = est_rows_[t];
    for (TreeEdge& edge : tree_[t].children) {
      EstimateTree(edge.child);
      const double base =
          static_cast<double>(bound_.tables[edge.child].table->num_rows());
      // FK semantics: a parent row survives roughly when its key still has
      // a partner among the child's retained rows.
      edge.sel = base > 0
                     ? Clamp(tree_[edge.child].est_out / base, 0.001, 1.0)
                     : 1.0;
      out *= edge.sel;
    }
    tree_[t].est_out = out;
  }

  // --- cost-based build ordering -----------------------------------------

  void LoadCostRates() {
    if (options_.manager != nullptr &&
        options_.cost_device >= 0 &&
        static_cast<size_t>(options_.cost_device) <
            options_.manager->num_devices()) {
      const sim::DevicePerfModel& model =
          options_.manager->device(options_.cost_device)->perf_model();
      const sim::KernelCostProfile& build = model.Profile("hash_build");
      const sim::KernelCostProfile& probe = model.Profile("hash_probe");
      build_rate_ = std::max(build.tuples_per_us, 1e-6);
      probe_rate_ = std::max(probe.tuples_per_us, 1e-6);
      build_fixed_ = build.fixed_us;
      probe_fixed_ = probe.fixed_us;
    }
  }

  double CostOrder(const std::vector<TreeEdge>& order, double input) const {
    double total = 0;
    double stream = input;
    for (const TreeEdge& edge : order) {
      total += build_fixed_ + tree_[edge.child].est_out / build_rate_;
      total += probe_fixed_ + stream / probe_rate_;
      stream *= edge.sel;
    }
    return total;
  }

  void OrderBuilds(int t) {
    TreeNode& node = tree_[t];
    for (const TreeEdge& edge : node.children) OrderBuilds(edge.child);
    if (node.children.size() < 2) return;
    std::vector<TreeEdge> best = node.children;
    if (node.children.size() <= 4) {
      std::vector<size_t> index(node.children.size());
      std::iota(index.begin(), index.end(), 0);
      double best_cost = 0;
      bool first = true;
      do {
        std::vector<TreeEdge> order;
        for (size_t i : index) order.push_back(node.children[i]);
        const double cost = CostOrder(order, est_rows_[t]);
        std::string label;
        for (const TreeEdge& edge : order) {
          label += (label.empty() ? "" : ", ") +
                   bound_.tables[edge.child].alias;
        }
        candidates_.emplace_back(std::move(label), cost);
        if (first || cost < best_cost) {
          best = std::move(order);
          best_cost = cost;
          first = false;
        }
      } while (std::next_permutation(index.begin(), index.end()));
    } else {
      // Too many permutations: the provably good greedy order (most
      // selective join first minimizes downstream probe volume).
      std::stable_sort(best.begin(), best.end(),
                       [](const TreeEdge& a, const TreeEdge& b) {
                         return a.sel < b.sel;
                       });
    }
    node.children = std::move(best);
  }

  void RecordJoinOrder(int t, CompiledQuery* out) {
    out->join_order.push_back(bound_.tables[t].alias);
    for (const TreeEdge& edge : tree_[t].children) {
      RecordJoinOrder(edge.child, out);
    }
    if (t == bound_.fact_table) {
      std::string chosen;
      for (const TreeEdge& edge : tree_[t].children) {
        chosen += (chosen.empty() ? "" : ", ") +
                  bound_.tables[edge.child].alias;
      }
      char buffer[64];
      for (const auto& [label, cost] : candidates_) {
        std::snprintf(buffer, sizeof(buffer), "%.1f", cost);
        out->join_candidates.push_back(label + " — " + buffer + " us" +
                                       (label == chosen ? " (chosen)" : ""));
      }
    }
  }

  // --- plan emission ------------------------------------------------------

  Result<LogicalNodePtr> EmitStream(int t) {
    const BoundTable& table = bound_.tables[t];
    LogicalNodePtr stream = plan::Scan(table.name);
    std::vector<std::pair<std::string, ScalarExpr>> diffs;
    std::vector<plan::Predicate> preds;
    for (const BoundPredicate& pred : table.predicates) {
      if (pred.needs_diff) {
        diffs.emplace_back(pred.pred.column,
                           ScalarExpr{MapOp::kSubCol, pred.diff_lhs,
                                      pred.diff_rhs, 0, pred.diff_type});
      }
      preds.push_back(pred.pred);
    }
    if (!diffs.empty()) stream = plan::Project(stream, std::move(diffs));
    if (!preds.empty()) stream = plan::Filter(stream, std::move(preds));
    for (const TreeEdge& edge : tree_[t].children) {
      ADAMANT_ASSIGN_OR_RETURN(LogicalNodePtr build, EmitStream(edge.child));
      stream = plan::HashJoin(stream, build, edge.parent_key, edge.child_key,
                              edge.mode, edge.sel);
    }
    return stream;
  }

  Result<LogicalNodePtr> EmitFactProjections(LogicalNodePtr stream,
                                             CompiledQuery* out) {
    std::vector<std::pair<std::string, ScalarExpr>> projections =
        bound_.projections;
    if (bound_.group_by.size() == 2) {
      // Pack both keys into one int32 by the shared two-column rule:
      // key = first * GroupKeyModulus(second's domain) + second.
      ADAMANT_ASSIGN_OR_RETURN(int64_t dom2, KeyDomain(bound_.group_by[1]));
      out->pack_mod = plan::GroupKeyModulus(dom2);
      const std::string hi = "$khi";
      projections.emplace_back(
          hi, ScalarExpr::MulScalar(bound_.group_by[0].column, out->pack_mod,
                                    ElementType::kInt32));
      projections.emplace_back(
          "$gkey", ScalarExpr::AddCol(hi, bound_.group_by[1].column,
                                      ElementType::kInt32));
    }
    if (!projections.empty()) {
      stream = plan::Project(stream, std::move(projections));
    }
    return stream;
  }

  /// Domain size of a group-key column on the fact table
  /// (plan::GroupKeyDomain).
  Result<int64_t> KeyDomain(const BoundGroupKey& key) {
    return plan::GroupKeyDomain(*bound_.tables[bound_.fact_table].table,
                                key.column);
  }

  Result<LogicalNodePtr> EmitSink(LogicalNodePtr stream, CompiledQuery*) {
    std::vector<AggSpec> aggs;
    aggs.reserve(bound_.aggregates.size());
    const bool grouped = !bound_.group_by.empty();
    for (BoundAggregate& agg : bound_.aggregates) {
      if (!grouped && agg.op == AggOp::kCount && agg.value_column.empty()) {
        // AGG_BLOCK counts through a value column; any surviving fact
        // column works.
        agg.value_column = CountColumn();
      }
      aggs.push_back(AggSpec{agg.op, agg.value_column, agg.output_name});
    }
    if (!grouped) return plan::Reduce(stream, std::move(aggs));

    std::string key = bound_.group_by[0].column;
    double expected = 0;  // 0: AnnotateSelectivities measures it
    bool scale = true;
    if (bound_.group_by.size() == 2) {
      key = "$gkey";
      ADAMANT_ASSIGN_OR_RETURN(int64_t dom1, KeyDomain(bound_.group_by[0]));
      ADAMANT_ASSIGN_OR_RETURN(int64_t dom2, KeyDomain(bound_.group_by[1]));
      expected = plan::PackedGroupCount(dom1, dom2);
      scale = false;
    } else if (bound_.group_by[0].sem == ColumnSemantic::kDict) {
      const BoundTable& fact = bound_.tables[bound_.fact_table];
      const StringDictionary* dict =
          fact.table->FindDictionary(bound_.group_by[0].column);
      if (dict != nullptr) {
        expected = static_cast<double>(dict->size());
        scale = false;
      }
    }
    return plan::GroupBy(stream, key, std::move(aggs), expected, scale);
  }

  std::string CountColumn() const {
    for (const BoundAggregate& agg : bound_.aggregates) {
      if (!agg.value_column.empty() && agg.value_column[0] != '$') {
        return agg.value_column;
      }
    }
    const Table& fact = *bound_.tables[bound_.fact_table].table;
    return fact.num_columns() > 0 ? fact.column(0)->name() : "";
  }

  BoundQuery bound_;
  const Catalog& catalog_;
  const PlannerOptions& options_;
  std::vector<double> est_rows_;
  std::vector<TreeNode> tree_;
  std::vector<std::pair<std::string, double>> candidates_;
  double build_rate_ = 1000.0;
  double probe_rate_ = 2000.0;
  double build_fixed_ = 0.0;
  double probe_fixed_ = 0.0;
};

}  // namespace

Result<CompiledQuery> PlanQuery(BoundQuery bound, const Catalog& catalog,
                                const PlannerOptions& options) {
  Planner planner(std::move(bound), catalog, options);
  return planner.Plan();
}

}  // namespace adamant::sql
