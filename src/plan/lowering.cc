#include "plan/lowering.h"

#include <algorithm>
#include <map>

#include "task/hash_table.h"

namespace adamant::plan {

namespace {

/// Safety margin applied to optimizer estimates before they size buffers:
/// a mild under-estimate then costs capacity, not a query failure.
constexpr double kEstimateMargin = 1.3;

/// Where a stream column currently lives.
struct ColumnState {
  ColumnPtr scan;  // base column, if not yet produced by a node
  int node = -1;
  int slot = 0;
  ElementType type = ElementType::kInt32;
  size_t epoch = 0;  // domain generation (advances at filters/joins)
};

/// A domain-advancing step: a filter (bitmap) or a join (position list).
struct AdvanceStep {
  bool is_join = false;
  int node = -1;   // FILTER_BITMAP node (slot 0 = bitmap) or HASH_PROBE
  double sel = 1;  // surviving fraction at this step
};

/// The value stream produced by a lowered logical subtree.
struct Stream {
  std::map<std::string, ColumnState> columns;
  std::vector<AdvanceStep> steps;
  double row_estimate = 0;
};

class Lowering {
 public:
  Lowering(const Catalog& catalog, PlacementPolicy policy)
      : catalog_(catalog), policy_(std::move(policy)) {
    bundle_.graph = std::make_unique<PrimitiveGraph>();
  }

  Result<PlanBundle> Run(const LogicalNode& root) {
    if (root.kind != LogicalNode::Kind::kGroupBy &&
        root.kind != LogicalNode::Kind::kReduce) {
      return Status::InvalidArgument(
          "logical plan root must be a GroupBy or Reduce sink");
    }
    ADAMANT_RETURN_NOT_OK(LowerSink(root));
    return std::move(bundle_);
  }

 private:
  PrimitiveGraph& g() { return *bundle_.graph; }

  Status ConnectBinding(const ColumnState& binding, int to_node, int to_slot) {
    if (binding.scan != nullptr) {
      return g().ConnectScan(binding.scan, to_node, to_slot).status();
    }
    return g().Connect(binding.node, binding.slot, to_node, to_slot,
                       binding.type)
        .status();
  }

  /// Brings `name` forward to the stream's current domain, inserting
  /// MATERIALIZE / MATERIALIZE_POSITION nodes as needed, and caches the
  /// result so later accesses share them.
  Result<ColumnState> Access(Stream* stream, const std::string& name) {
    auto it = stream->columns.find(name);
    if (it == stream->columns.end()) {
      return Status::NotFound("column '" + name + "' in stream");
    }
    ColumnState binding = it->second;
    while (binding.epoch < stream->steps.size()) {
      const AdvanceStep& step = stream->steps[binding.epoch];
      if (step.is_join) {
        int gather = g().AddNode(PrimitiveKind::kMaterializePosition,
                                 policy_.For(PrimitiveKind::kMaterializePosition),
                                 {}, "lower.gather(" + name + ")");
        ADAMANT_RETURN_NOT_OK(ConnectBinding(binding, gather, 0));
        ADAMANT_RETURN_NOT_OK(g().Connect(step.node, 0, gather, 1).status());
        binding.scan = nullptr;
        binding.node = gather;
        binding.slot = 0;
      } else {
        NodeConfig cfg;
        cfg.selectivity = std::min(1.0, step.sel * kEstimateMargin);
        int mat = g().AddNode(PrimitiveKind::kMaterialize,
                              policy_.For(PrimitiveKind::kMaterialize), cfg,
                              "lower.materialize(" + name + ")");
        ADAMANT_RETURN_NOT_OK(ConnectBinding(binding, mat, 0));
        ADAMANT_RETURN_NOT_OK(g().Connect(step.node, 0, mat, 1).status());
        binding.scan = nullptr;
        binding.node = mat;
        binding.slot = 0;
      }
      ++binding.epoch;
    }
    stream->columns[name] = binding;
    return binding;
  }

  Result<Stream> LowerStream(const LogicalNode& node) {
    switch (node.kind) {
      case LogicalNode::Kind::kScan:
        return LowerScan(node);
      case LogicalNode::Kind::kFilter:
        return LowerFilter(node);
      case LogicalNode::Kind::kProject:
        return LowerProject(node);
      case LogicalNode::Kind::kHashJoin:
        return LowerJoin(node);
      case LogicalNode::Kind::kGroupBy:
      case LogicalNode::Kind::kReduce:
        return Status::InvalidArgument(
            "aggregation sinks may only appear at the plan root");
    }
    return Status::Internal("unknown logical node kind");
  }

  Result<Stream> LowerScan(const LogicalNode& node) {
    ADAMANT_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(node.table));
    Stream stream;
    stream.row_estimate = static_cast<double>(table->num_rows());
    for (const ColumnPtr& column : table->columns()) {
      ColumnState state;
      state.scan = column;
      state.type = column->type();
      stream.columns[column->name()] = state;
    }
    return stream;
  }

  Result<Stream> LowerFilter(const LogicalNode& node) {
    ADAMANT_ASSIGN_OR_RETURN(Stream stream, LowerStream(*node.child));
    if (node.predicates.empty()) {
      return Status::InvalidArgument("Filter with no predicates");
    }
    int prev_filter = -1;
    double sel = 1.0;
    for (size_t i = 0; i < node.predicates.size(); ++i) {
      const Predicate& pred = node.predicates[i];
      ADAMANT_ASSIGN_OR_RETURN(ColumnState binding,
                               Access(&stream, pred.column));
      NodeConfig cfg;
      cfg.cmp_op = pred.op;
      cfg.lo = pred.lo;
      cfg.hi = pred.hi;
      cfg.combine_and = i > 0;
      int filter = g().AddNode(PrimitiveKind::kFilterBitmap,
                               policy_.For(PrimitiveKind::kFilterBitmap), cfg,
                               "lower.filter(" + pred.column + ")");
      ADAMANT_RETURN_NOT_OK(ConnectBinding(binding, filter, 0));
      if (i > 0) {
        ADAMANT_RETURN_NOT_OK(g().Connect(prev_filter, 0, filter, 1).status());
      }
      prev_filter = filter;
      sel *= pred.selectivity;
    }
    stream.steps.push_back(AdvanceStep{false, prev_filter, sel});
    stream.row_estimate *= sel;
    return stream;
  }

  Result<Stream> LowerProject(const LogicalNode& node) {
    ADAMANT_ASSIGN_OR_RETURN(Stream stream, LowerStream(*node.child));
    for (const auto& [name, expr] : node.projections) {
      ADAMANT_ASSIGN_OR_RETURN(ColumnState a, Access(&stream, expr.a));
      ColumnState b;
      if (MapReadsSecondColumn(expr.op)) {
        ADAMANT_ASSIGN_OR_RETURN(b, Access(&stream, expr.b));
        const bool pct_op = IsPercentMap(expr.op);
        if (pct_op && b.type != ElementType::kInt32) {
          return Status::InvalidArgument("percentage operand '" + expr.b +
                                         "' must be int32");
        }
        if (!pct_op && b.type != a.type) {
          return Status::InvalidArgument("operand type mismatch in '" + name +
                                         "'");
        }
      }
      NodeConfig cfg;
      cfg.map_op = expr.op;
      cfg.in_type = a.type;
      cfg.out_type = expr.out_type;
      cfg.imm = expr.imm;
      int map = g().AddNode(PrimitiveKind::kMap,
                            policy_.For(PrimitiveKind::kMap), cfg,
                            "lower.map(" + name + ")");
      ADAMANT_RETURN_NOT_OK(ConnectBinding(a, map, 0));
      if (MapReadsSecondColumn(expr.op)) {
        ADAMANT_RETURN_NOT_OK(ConnectBinding(b, map, 1));
      }
      ColumnState out;
      out.node = map;
      out.type = expr.out_type;
      out.epoch = stream.steps.size();
      stream.columns[name] = out;
    }
    return stream;
  }

  Result<Stream> LowerJoin(const LogicalNode& node) {
    // Build side first (its pipeline must finish before probing starts —
    // pipeline ordering falls out of the primitive graph's breaker split).
    ADAMANT_ASSIGN_OR_RETURN(Stream build_stream, LowerStream(*node.build));
    ADAMANT_ASSIGN_OR_RETURN(ColumnState build_key,
                             Access(&build_stream, node.build_key));
    if (build_key.type != ElementType::kInt32) {
      return Status::InvalidArgument("join keys must be int32");
    }
    NodeConfig build_cfg;
    build_cfg.expected_build_rows =
        std::max(16.0, build_stream.row_estimate * kEstimateMargin);
    build_cfg.build_rows_scale_with_data = true;
    int build = g().AddNode(PrimitiveKind::kHashBuild,
                            policy_.For(PrimitiveKind::kHashBuild), build_cfg,
                            "lower.build(" + node.build_key + ")");
    ADAMANT_RETURN_NOT_OK(ConnectBinding(build_key, build, 0));

    ADAMANT_ASSIGN_OR_RETURN(Stream stream, LowerStream(*node.child));
    ADAMANT_ASSIGN_OR_RETURN(ColumnState probe_key,
                             Access(&stream, node.probe_key));
    if (probe_key.type != ElementType::kInt32) {
      return Status::InvalidArgument("join keys must be int32");
    }
    NodeConfig probe_cfg;
    probe_cfg.probe_mode = node.join_mode;
    probe_cfg.selectivity =
        std::min(1.0, node.join_selectivity * kEstimateMargin);
    int probe = g().AddNode(PrimitiveKind::kHashProbe,
                            policy_.For(PrimitiveKind::kHashProbe), probe_cfg,
                            "lower.probe(" + node.probe_key + ")");
    ADAMANT_RETURN_NOT_OK(ConnectBinding(probe_key, probe, 0));
    ADAMANT_RETURN_NOT_OK(g().Connect(build, 0, probe, 1).status());

    stream.steps.push_back(AdvanceStep{true, probe, node.join_selectivity});
    stream.row_estimate *= node.join_selectivity;
    return stream;
  }

  Status LowerSink(const LogicalNode& node) {
    ADAMANT_ASSIGN_OR_RETURN(Stream stream, LowerStream(*node.child));
    if (node.aggregates.empty()) {
      return Status::InvalidArgument("aggregation sink with no aggregates");
    }
    if (node.kind == LogicalNode::Kind::kGroupBy) {
      ADAMANT_ASSIGN_OR_RETURN(ColumnState key,
                               Access(&stream, node.group_key));
      if (key.type != ElementType::kInt32) {
        return Status::InvalidArgument("group keys must be int32");
      }
      NodeConfig cfg;
      cfg.expected_build_rows =
          node.expected_groups > 0
              ? node.expected_groups
              : std::max(16.0, stream.row_estimate * kEstimateMargin);
      cfg.build_rows_scale_with_data = node.groups_scale_with_data;
      // One HASH_AGG holds every aggregate of the GROUP BY; past the
      // kernel's accumulator limit the next ones start another node.
      const size_t per_node = HashTableLayout::kMaxAccumulators;
      const size_t num_aggs = node.aggregates.size();
      for (size_t first = 0; first < num_aggs; first += per_node) {
        const size_t last = std::min(num_aggs, first + per_node);
        cfg.agg_ops.clear();
        for (size_t a = first; a < last; ++a) {
          cfg.agg_ops.push_back(node.aggregates[a].op);
        }
        std::string label = "lower.groupby(" + node.group_key + ")";
        if (num_aggs > per_node) {
          label.append("[")
              .append(std::to_string(first / per_node))
              .append("]");
        }
        int sink = g().AddNode(PrimitiveKind::kHashAgg,
                               policy_.For(PrimitiveKind::kHashAgg), cfg,
                               std::move(label));
        ADAMANT_RETURN_NOT_OK(ConnectBinding(key, sink, 0));
        for (size_t a = first; a < last; ++a) {
          const AggSpec& agg = node.aggregates[a];
          if (agg.op != AggOp::kCount) {
            ADAMANT_ASSIGN_OR_RETURN(ColumnState value,
                                     Access(&stream, agg.value_column));
            ADAMANT_RETURN_NOT_OK(ConnectBinding(
                value, sink, static_cast<int>(1 + a - first)));
          }
          bundle_.nodes[agg.output_name] = sink;
          bundle_.accumulators[agg.output_name] = a - first;
        }
        if (bundle_.result_node < 0) bundle_.result_node = sink;
      }
    } else {  // kReduce
      for (const AggSpec& agg : node.aggregates) {
        if (agg.value_column.empty()) {
          return Status::InvalidArgument(
              "Reduce aggregates need a value column (COUNT included)");
        }
        ADAMANT_ASSIGN_OR_RETURN(ColumnState value,
                                 Access(&stream, agg.value_column));
        NodeConfig cfg;
        cfg.agg_op = agg.op;
        int sink = g().AddNode(PrimitiveKind::kAggBlock,
                               policy_.For(PrimitiveKind::kAggBlock), cfg,
                               "lower.reduce(" + agg.output_name + ")");
        ADAMANT_RETURN_NOT_OK(ConnectBinding(value, sink, 0));
        bundle_.nodes[agg.output_name] = sink;
        if (bundle_.result_node < 0) bundle_.result_node = sink;
      }
    }
    return Status::OK();
  }

  const Catalog& catalog_;
  PlacementPolicy policy_;
  PlanBundle bundle_;
};

}  // namespace

Result<PlanBundle> LowerPlan(const LogicalNode& root, const Catalog& catalog,
                             DeviceId device) {
  return LowerPlan(root, catalog, PlacementPolicy::AllOn(device));
}

Result<PlanBundle> LowerPlan(const LogicalNode& root, const Catalog& catalog,
                             const PlacementPolicy& policy) {
  Lowering lowering(catalog, policy);
  ADAMANT_ASSIGN_OR_RETURN(PlanBundle bundle, lowering.Run(root));
  ADAMANT_RETURN_NOT_OK(bundle.graph->Validate());
  return bundle;
}

}  // namespace adamant::plan
