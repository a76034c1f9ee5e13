#include "runtime/exec/plan_shapes.h"

#include <algorithm>
#include <map>

#include "common/bit_util.h"
#include "task/hash_table.h"

namespace adamant::exec {

ModelTraits TraitsOf(ExecutionModelKind kind) {
  switch (kind) {
    case ExecutionModelKind::kOperatorAtATime:
      return {.whole_input = true};
    case ExecutionModelKind::kPipelined:
      return {.async = true};
    case ExecutionModelKind::kFourPhaseChunked:
      return {.staged = true};
    case ExecutionModelKind::kFourPhasePipelined:
      return {.staged = true, .async = true};
    case ExecutionModelKind::kChunked:
    case ExecutionModelKind::kDeviceParallel:
      break;
  }
  return {};
}

size_t EstimateElems(size_t input_capacity, double selectivity) {
  double est = static_cast<double>(input_capacity) * selectivity;
  return static_cast<size_t>(est) + 64;
}

int PrimaryInputSlot(const GraphNode& node) {
  return node.kind == PrimitiveKind::kMaterializePosition ? 1 : 0;
}

NodeOutputPlan PlanNodeOutputs(const GraphNode& node, size_t in_capacity) {
  NodeOutputPlan plan;
  const size_t cap = GetSignature(node.kind).sized_by_selectivity
                         ? EstimateElems(in_capacity, node.config.selectivity)
                         : in_capacity;
  plan.capacity = cap;
  auto add = [&plan](int slot, size_t bytes, DataSemantic semantic) {
    plan.entries[plan.size++] = {slot, bytes, semantic};
  };
  switch (node.kind) {
    case PrimitiveKind::kMap:
      add(0, cap * ElementSize(node.config.out_type), DataSemantic::kNumeric);
      break;
    case PrimitiveKind::kFilterBitmap:
      // A combining filter writes into its input bitmap.
      if (!node.config.combine_and) {
        add(0, bit_util::BytesForBits(cap), DataSemantic::kBitmap);
      }
      break;
    case PrimitiveKind::kFilterPosition:
      add(0, cap * sizeof(int32_t), DataSemantic::kPosition);
      add(2, sizeof(int64_t), DataSemantic::kNumeric);
      break;
    // A fused group has a single compacted output + count, like MATERIALIZE
    // — and nothing else: its interior intermediates need no buffers.
    case PrimitiveKind::kMaterialize:
    case PrimitiveKind::kFused:
      add(0, cap * 8, DataSemantic::kNumeric);
      add(2, sizeof(int64_t), DataSemantic::kNumeric);
      break;
    case PrimitiveKind::kMaterializePosition:
      add(0, cap * 8, DataSemantic::kNumeric);
      break;
    case PrimitiveKind::kHashProbe:
      add(0, cap * sizeof(int32_t), DataSemantic::kPosition);
      add(1, cap * sizeof(int32_t), DataSemantic::kNumeric);
      add(2, sizeof(int64_t), DataSemantic::kNumeric);
      break;
    // Breakers write into their persists; no per-chunk outputs.
    case PrimitiveKind::kAggBlock:
    case PrimitiveKind::kHashBuild:
    case PrimitiveKind::kHashAgg:
    case PrimitiveKind::kSortAgg:
    case PrimitiveKind::kPrefixSum:
    case PrimitiveKind::kFusedAgg:
      break;
  }
  return plan;
}

std::vector<size_t> PipelineInputCapacities(const PrimitiveGraph& graph,
                                            const Pipeline& pipeline,
                                            size_t cap) {
  std::map<int, size_t> out_caps;  // node id -> planned output capacity
  std::vector<size_t> in_caps;
  in_caps.reserve(pipeline.nodes.size());
  for (int node_id : pipeline.nodes) {
    const GraphNode& node = graph.node(node_id);
    size_t in_cap = cap;
    for (int edge_id : graph.InEdges(node_id)) {
      const GraphEdge& edge = graph.edges()[static_cast<size_t>(edge_id)];
      if (edge.to_slot != PrimaryInputSlot(node) || edge.is_scan()) continue;
      auto it = out_caps.find(edge.from_node);
      if (it != out_caps.end()) in_cap = it->second;
    }
    in_caps.push_back(in_cap);
    out_caps[node_id] = PlanNodeOutputs(node, in_cap).capacity;
  }
  return in_caps;
}

Result<PersistShape> PlanPersist(const GraphNode& node, size_t input_rows) {
  PersistShape shape;
  switch (node.kind) {
    case PrimitiveKind::kAggBlock:
    case PrimitiveKind::kFusedAgg:
      shape.bytes = sizeof(int64_t);
      break;
    case PrimitiveKind::kHashBuild: {
      if (node.config.expected_build_rows <= 0) {
        return Status::InvalidArgument(
            node.label + ": expected_build_rows must be set for HASH_BUILD");
      }
      shape.num_slots = HashTableLayout::SlotsFor(
          static_cast<size_t>(node.config.expected_build_rows));
      shape.bytes = HashTableLayout::BuildTableBytes(shape.num_slots);
      break;
    }
    case PrimitiveKind::kHashAgg: {
      if (node.config.expected_build_rows <= 0) {
        return Status::InvalidArgument(
            node.label + ": expected_build_rows must be set for HASH_AGG");
      }
      shape.num_slots = HashTableLayout::SlotsFor(
          static_cast<size_t>(node.config.expected_build_rows));
      shape.bytes = HashTableLayout::AggTableBytes(
          shape.num_slots, node.config.agg_ops.size());
      break;
    }
    case PrimitiveKind::kSortAgg:
      if (node.config.num_groups == 0) {
        return Status::InvalidArgument(node.label + ": num_groups must be set");
      }
      shape.bytes = node.config.num_groups * sizeof(int64_t);
      shape.capacity = node.config.num_groups;
      break;
    case PrimitiveKind::kPrefixSum:
      shape.bytes = input_rows * sizeof(int32_t);
      shape.capacity = input_rows;
      break;
    default:
      return Status::Internal(node.label + " is not a pipeline breaker");
  }
  return shape;
}

size_t PipelineChunkCapacity(const Pipeline& pipeline,
                             const ExecutionOptions& options, double scale) {
  if (TraitsOf(options.model).whole_input) return pipeline.input_rows;
  auto actual =
      static_cast<size_t>(static_cast<double>(options.chunk_elems) / scale);
  return std::min(pipeline.input_rows, std::max<size_t>(actual, 1));
}

}  // namespace adamant::exec
