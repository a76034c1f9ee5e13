#include "runtime/exec/plan_shapes.h"

#include <algorithm>

#include "common/bit_util.h"
#include "task/hash_table.h"

namespace adamant::exec {

size_t EstimateElems(size_t input_capacity, double selectivity) {
  double est = static_cast<double>(input_capacity) * selectivity;
  return static_cast<size_t>(est) + 64;
}

std::vector<OutputPlanEntry> PlanNodeOutputs(const GraphNode& node,
                                             size_t in_capacity) {
  const double sel = node.config.selectivity;
  switch (node.kind) {
    case PrimitiveKind::kMap:
      return {{0, in_capacity * ElementSize(node.config.out_type),
               DataSemantic::kNumeric}};
    case PrimitiveKind::kFilterBitmap:
      if (node.config.combine_and) return {};  // writes into input bitmap
      return {{0, bit_util::BytesForBits(in_capacity),
               DataSemantic::kBitmap}};
    case PrimitiveKind::kFilterPosition:
      return {{0, EstimateElems(in_capacity, sel) * sizeof(int32_t),
               DataSemantic::kPosition},
              {2, sizeof(int64_t), DataSemantic::kNumeric}};
    case PrimitiveKind::kMaterialize:
      return {{0, EstimateElems(in_capacity, sel) * 8,
               DataSemantic::kNumeric},
              {2, sizeof(int64_t), DataSemantic::kNumeric}};
    case PrimitiveKind::kMaterializePosition:
      return {{0, in_capacity * 8, DataSemantic::kNumeric}};
    case PrimitiveKind::kHashProbe:
      return {{0, EstimateElems(in_capacity, sel) * sizeof(int32_t),
               DataSemantic::kPosition},
              {1, EstimateElems(in_capacity, sel) * sizeof(int32_t),
               DataSemantic::kNumeric},
              {2, sizeof(int64_t), DataSemantic::kNumeric}};
    case PrimitiveKind::kFused:
      // Single compacted output + count, like MATERIALIZE — and nothing
      // else: the fused group's interior intermediates need no ring slots.
      return {{0, EstimateElems(in_capacity, sel) * 8,
               DataSemantic::kNumeric},
              {2, sizeof(int64_t), DataSemantic::kNumeric}};
    // Breakers write into their persists; no per-chunk outputs.
    case PrimitiveKind::kAggBlock:
    case PrimitiveKind::kHashBuild:
    case PrimitiveKind::kHashAgg:
    case PrimitiveKind::kSortAgg:
    case PrimitiveKind::kPrefixSum:
    case PrimitiveKind::kFusedAgg:
      return {};
  }
  return {};
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
                             const ExecutionOptions& options, bool oaat,
                             double scale) {
  size_t cap = pipeline.input_rows;
  if (!oaat) {
    auto actual =
        static_cast<size_t>(static_cast<double>(options.chunk_elems) / scale);
    cap = std::min(pipeline.input_rows, std::max<size_t>(actual, 1));
  }
  return cap;
}

}  // namespace adamant::exec
