#include "task/primitive.h"

#include "common/logging.h"

namespace adamant {

const char* PrimitiveKindName(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kMap:
      return "MAP";
    case PrimitiveKind::kAggBlock:
      return "AGG_BLOCK";
    case PrimitiveKind::kHashAgg:
      return "HASH_AGG";
    case PrimitiveKind::kHashBuild:
      return "HASH_BUILD";
    case PrimitiveKind::kHashProbe:
      return "HASH_PROBE";
    case PrimitiveKind::kSortAgg:
      return "SORT_AGG";
    case PrimitiveKind::kFilterBitmap:
      return "FILTER_BITMAP";
    case PrimitiveKind::kFilterPosition:
      return "FILTER_POSITION";
    case PrimitiveKind::kPrefixSum:
      return "PREFIX_SUM";
    case PrimitiveKind::kMaterialize:
      return "MATERIALIZE";
    case PrimitiveKind::kMaterializePosition:
      return "MATERIALIZE_POSITION";
    case PrimitiveKind::kFused:
      return "FUSED";
    case PrimitiveKind::kFusedAgg:
      return "FUSED_AGG";
  }
  return "?";
}

const char* DataSemanticName(DataSemantic semantic) {
  switch (semantic) {
    case DataSemantic::kNumeric:
      return "NUMERIC";
    case DataSemantic::kBitmap:
      return "BITMAP";
    case DataSemantic::kPosition:
      return "POSITION";
    case DataSemantic::kPrefixSum:
      return "PREFIX_SUM";
    case DataSemantic::kHashTable:
      return "HASH_TABLE";
    case DataSemantic::kGeneric:
      return "GENERIC";
  }
  return "?";
}

namespace {
using S = DataSemantic;

// Table I of the paper, in PrimitiveKind order. Pipeline breakers (dagger in
// the paper) materialize their result into device memory and end a pipeline;
// the last column marks the kinds sized by selectivity.
const std::vector<PrimitiveSignature>& SignatureTable() {
  static const std::vector<PrimitiveSignature>* const kTable =
      new std::vector<PrimitiveSignature>{
          {PrimitiveKind::kMap, "map", {S::kNumeric, S::kNumeric},
           {S::kNumeric}, false, false},
          {PrimitiveKind::kAggBlock, "agg_block", {S::kNumeric},
           {S::kNumeric}, true, false},
          {PrimitiveKind::kHashAgg, "hash_agg", {S::kNumeric, S::kNumeric},
           {S::kHashTable}, true, false},
          {PrimitiveKind::kHashBuild, "hash_build",
           {S::kNumeric, S::kNumeric}, {S::kHashTable}, true, false},
          {PrimitiveKind::kHashProbe, "hash_probe",
           {S::kNumeric, S::kHashTable}, {S::kPosition, S::kNumeric}, false,
           true},
          {PrimitiveKind::kSortAgg, "sort_agg",
           {S::kNumeric, S::kPrefixSum, S::kNumeric}, {S::kNumeric}, true,
           false},
          {PrimitiveKind::kFilterBitmap, "filter_bitmap", {S::kNumeric},
           {S::kBitmap}, false, false},
          {PrimitiveKind::kFilterPosition, "filter_position", {S::kNumeric},
           {S::kPosition}, false, true},
          {PrimitiveKind::kPrefixSum, "prefix_sum", {S::kNumeric},
           {S::kPrefixSum}, true, false},
          {PrimitiveKind::kMaterialize, "materialize",
           {S::kNumeric, S::kBitmap}, {S::kNumeric}, false, true},
          {PrimitiveKind::kMaterializePosition, "materialize_position",
           {S::kNumeric, S::kPosition}, {S::kNumeric}, false, false},
          // Composite primitives (plan::FusionPass). Input arity is
          // recipe-dependent; the runtime validates it from the node's
          // fused_steps, so the signature stays GENERIC.
          {PrimitiveKind::kFused, "fused", {S::kGeneric}, {S::kNumeric},
           false, true},
          {PrimitiveKind::kFusedAgg, "fused", {S::kGeneric}, {S::kNumeric},
           true, false},
      };
  return *kTable;
}
}  // namespace

const PrimitiveSignature& GetSignature(PrimitiveKind kind) {
  const auto& table = SignatureTable();
  auto index = static_cast<size_t>(kind);
  ADAMANT_CHECK(index < table.size());
  ADAMANT_CHECK(table[index].kind == kind) << "signature table out of order";
  return table[index];
}

const std::vector<PrimitiveSignature>& AllSignatures() {
  return SignatureTable();
}

Status ValidateEdge(DataSemantic from, PrimitiveKind to, size_t input_index) {
  const PrimitiveSignature& sig = GetSignature(to);
  if (input_index >= sig.inputs.size()) {
    return Status::InvalidArgument(
        std::string(PrimitiveKindName(to)) + " has " +
        std::to_string(sig.inputs.size()) + " inputs, got edge into slot " +
        std::to_string(input_index));
  }
  DataSemantic expected = sig.inputs[input_index];
  // GENERIC accepts anything, in both directions (custom data semantics).
  if (expected == DataSemantic::kGeneric || from == DataSemantic::kGeneric) {
    return Status::OK();
  }
  if (expected != from) {
    return Status::InvalidArgument(
        std::string(PrimitiveKindName(to)) + " input " +
        std::to_string(input_index) + " expects " +
        DataSemanticName(expected) + ", got " + DataSemanticName(from));
  }
  return Status::OK();
}

const char* FusedStepOpName(FusedStep::Op op) {
  switch (op) {
    case FusedStep::Op::kLoad:
      return "load";
    case FusedStep::Op::kFilter:
      return "filter";
    case FusedStep::Op::kMap:
      return "map";
    case FusedStep::Op::kEmit:
      return "emit";
    case FusedStep::Op::kAgg:
      return "agg";
  }
  return "?";
}

size_t FusedNumInputs(const std::vector<FusedStep>& steps) {
  int64_t max_input = -1;
  for (const FusedStep& step : steps) {
    if (step.op == FusedStep::Op::kLoad && step.a > max_input) {
      max_input = step.a;
    }
  }
  return static_cast<size_t>(max_input + 1);
}

std::string FusedRecipeLabel(const std::vector<FusedStep>& steps) {
  std::string label;
  for (const FusedStep& step : steps) {
    if (step.op == FusedStep::Op::kLoad) continue;
    if (!label.empty()) label += '+';
    label += FusedStepOpName(step.op);
  }
  return label;
}

}  // namespace adamant
