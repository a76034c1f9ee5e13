#include "runtime/primitive_graph.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/logging.h"
#include "task/hash_table.h"

namespace adamant {

namespace {

struct SlotSpec {
  DataSemantic semantic;
  bool required;
};

/// Executable input conventions per node kind. These refine Table I with the
/// optional slots the runtime supports (map's second operand, the
/// conjunctive filter's incoming bitmap, build/agg payload columns).
std::vector<SlotSpec> ExpectedInputs(const GraphNode& node) {
  using S = DataSemantic;
  switch (node.kind) {
    case PrimitiveKind::kMap:
      return {{S::kNumeric, true}, {S::kNumeric, false}};
    case PrimitiveKind::kFilterBitmap:
      if (node.config.combine_and) {
        return {{S::kNumeric, true}, {S::kBitmap, true}};
      }
      return {{S::kNumeric, true}};
    case PrimitiveKind::kFilterPosition:
      return {{S::kNumeric, true}};
    case PrimitiveKind::kMaterialize:
      return {{S::kNumeric, true}, {S::kBitmap, true}};
    case PrimitiveKind::kMaterializePosition:
      return {{S::kNumeric, true}, {S::kPosition, true}};
    case PrimitiveKind::kPrefixSum:
      return {{S::kNumeric, true}};
    case PrimitiveKind::kAggBlock:
      return {{S::kNumeric, true}};
    case PrimitiveKind::kHashBuild:
      return {{S::kNumeric, true}, {S::kNumeric, false}};
    case PrimitiveKind::kHashProbe:
      return {{S::kNumeric, true}, {S::kHashTable, true}};
    case PrimitiveKind::kHashAgg: {
      // The keys, then one values slot per accumulator, required unless
      // COUNT (Table I).
      std::vector<SlotSpec> slots = {{S::kNumeric, true}};
      for (AggOp op : node.config.agg_ops) {
        slots.push_back({S::kNumeric, op != AggOp::kCount});
      }
      return slots;
    }
    case PrimitiveKind::kSortAgg:
      return {{S::kNumeric, true}, {S::kPrefixSum, true}};
    case PrimitiveKind::kFused:
    case PrimitiveKind::kFusedAgg:
      // One required NUMERIC slot per input buffer the recipe loads.
      return std::vector<SlotSpec>(FusedNumInputs(node.config.fused_steps),
                                   {S::kNumeric, true});
  }
  return {};
}

DataSemantic OutputSemantic(const GraphNode& node, int slot) {
  const PrimitiveSignature& sig = GetSignature(node.kind);
  ADAMANT_CHECK(slot >= 0 &&
                static_cast<size_t>(slot) < sig.outputs.size())
      << PrimitiveKindName(node.kind) << " has no output slot " << slot;
  return sig.outputs[static_cast<size_t>(slot)];
}

}  // namespace

int PrimitiveGraph::AddNode(PrimitiveKind kind, DeviceId device,
                            NodeConfig config, std::string label) {
  GraphNode node;
  node.id = static_cast<int>(nodes_.size());
  node.kind = kind;
  node.device = device;
  node.config = config;
  node.label = label.empty() ? std::string(PrimitiveKindName(kind))
                             : std::move(label);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

Result<int> PrimitiveGraph::ConnectScan(ColumnPtr column, int to_node,
                                        int to_slot) {
  if (column == nullptr) return Status::InvalidArgument("null scan column");
  if (to_node < 0 || static_cast<size_t>(to_node) >= nodes_.size()) {
    return Status::NotFound("node " + std::to_string(to_node));
  }
  GraphEdge edge;
  edge.id = static_cast<int>(edges_.size());
  edge.to_node = to_node;
  edge.to_slot = to_slot;
  edge.semantic = DataSemantic::kNumeric;
  edge.elem_type = column->type();
  edge.column = std::move(column);
  edges_.push_back(std::move(edge));
  return edges_.back().id;
}

Result<int> PrimitiveGraph::Connect(
    int from_node, int from_slot, int to_node, int to_slot,
    ElementType elem_type, std::optional<DataSemantic> semantic_override) {
  if (from_node < 0 || static_cast<size_t>(from_node) >= nodes_.size()) {
    return Status::NotFound("producer node " + std::to_string(from_node));
  }
  if (to_node < 0 || static_cast<size_t>(to_node) >= nodes_.size()) {
    return Status::NotFound("consumer node " + std::to_string(to_node));
  }
  const PrimitiveSignature& sig = GetSignature(node(from_node).kind);
  if (from_slot < 0 || static_cast<size_t>(from_slot) >= sig.outputs.size()) {
    return Status::InvalidArgument(
        std::string(PrimitiveKindName(node(from_node).kind)) +
        " has no output slot " + std::to_string(from_slot));
  }
  GraphEdge edge;
  edge.id = static_cast<int>(edges_.size());
  edge.from_node = from_node;
  edge.from_slot = from_slot;
  edge.to_node = to_node;
  edge.to_slot = to_slot;
  edge.semantic = semantic_override.value_or(
      OutputSemantic(node(from_node), from_slot));
  edge.elem_type = elem_type;
  edges_.push_back(std::move(edge));
  return edges_.back().id;
}

std::vector<int> PrimitiveGraph::InEdges(int node) const {
  std::vector<int> result;
  for (const GraphEdge& edge : edges_) {
    if (edge.to_node == node) result.push_back(edge.id);
  }
  std::sort(result.begin(), result.end(), [this](int a, int b) {
    return edges_[static_cast<size_t>(a)].to_slot <
           edges_[static_cast<size_t>(b)].to_slot;
  });
  return result;
}

std::vector<int> PrimitiveGraph::OutEdges(int node) const {
  std::vector<int> result;
  for (const GraphEdge& edge : edges_) {
    if (edge.from_node == node) result.push_back(edge.id);
  }
  return result;
}

bool PrimitiveGraph::IsTerminal(int node) const {
  return OutEdges(node).empty();
}

void PrimitiveGraph::ResetProgress() {
  for (GraphEdge& edge : edges_) {
    edge.fetched_until = 0;
    edge.processed_until = 0;
  }
}

size_t PrimitiveGraph::InputBytes() const {
  std::set<const Column*> seen;
  size_t total = 0;
  for (const GraphEdge& edge : edges_) {
    if (edge.is_scan() && seen.insert(edge.column.get()).second) {
      total += edge.column->byte_size();
    }
  }
  return total;
}

Status PrimitiveGraph::ValidateNodeInputs(
    const GraphNode& node, const std::vector<int>& in_edges) const {
  if (node.kind == PrimitiveKind::kHashAgg &&
      (node.config.agg_ops.empty() ||
       node.config.agg_ops.size() > HashTableLayout::kMaxAccumulators)) {
    return Status::InvalidArgument(
        node.label + ": HASH_AGG takes 1 to " +
        std::to_string(HashTableLayout::kMaxAccumulators) +
        " accumulators, got " + std::to_string(node.config.agg_ops.size()));
  }
  const std::vector<SlotSpec> expected = ExpectedInputs(node);
  std::vector<const GraphEdge*> by_slot(expected.size(), nullptr);
  for (int edge_id : in_edges) {
    const GraphEdge& edge = edges_[static_cast<size_t>(edge_id)];
    const auto slot = static_cast<size_t>(edge.to_slot);
    if (slot >= expected.size()) {
      return Status::InvalidArgument(
          node.label + ": input slot " + std::to_string(edge.to_slot) +
          " out of range (" + std::to_string(expected.size()) + " slots)");
    }
    if (by_slot[slot] != nullptr) {
      return Status::InvalidArgument(node.label + ": duplicate input slot " +
                                     std::to_string(edge.to_slot));
    }
    const bool numeric_compatible =
        expected[slot].semantic == DataSemantic::kNumeric &&
        (edge.semantic == DataSemantic::kPosition ||
         edge.semantic == DataSemantic::kPrefixSum);
    if (expected[slot].semantic != edge.semantic &&
        edge.semantic != DataSemantic::kGeneric && !numeric_compatible) {
      return Status::InvalidArgument(
          node.label + ": slot " + std::to_string(edge.to_slot) + " expects " +
          DataSemanticName(expected[slot].semantic) + ", got " +
          DataSemanticName(edge.semantic));
    }
    by_slot[slot] = &edge;
  }
  for (size_t slot = 0; slot < expected.size(); ++slot) {
    if (expected[slot].required && by_slot[slot] == nullptr) {
      return Status::InvalidArgument(node.label + ": missing required input " +
                                     std::to_string(slot));
    }
  }
  return Status::OK();
}

Status PrimitiveGraph::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("empty primitive graph");
  for (const GraphNode& node : nodes_) {
    ADAMANT_RETURN_NOT_OK(ValidateNodeInputs(node, InEdges(node.id)));
  }
  return TopoOrder().status();
}

Result<std::vector<int>> PrimitiveGraph::TopoOrder() const {
  std::vector<int> in_degree(nodes_.size(), 0);
  for (const GraphEdge& edge : edges_) {
    if (!edge.is_scan()) in_degree[static_cast<size_t>(edge.to_node)]++;
  }
  std::vector<int> ready;
  for (const GraphNode& node : nodes_) {
    if (in_degree[static_cast<size_t>(node.id)] == 0) ready.push_back(node.id);
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  // Pop lowest id first for determinism.
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<>());
    int node = ready.back();
    ready.pop_back();
    order.push_back(node);
    for (int edge_id : OutEdges(node)) {
      int consumer = edges_[static_cast<size_t>(edge_id)].to_node;
      if (--in_degree[static_cast<size_t>(consumer)] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::InvalidArgument("primitive graph contains a cycle");
  }
  return order;
}

Result<std::vector<Pipeline>> PrimitiveGraph::SplitPipelines() const {
  ADAMANT_ASSIGN_OR_RETURN(std::vector<int> order, TopoOrder());

  // Union-find over provisional pipeline groups: a node joins the group of
  // every non-breaker producer feeding it (scan and breaker-output inputs
  // do not bind — breakers end their pipeline). Two open groups meeting at
  // a node (e.g. two filter branches over the same table) merge into one
  // execution group.
  std::vector<int> group_of(nodes_.size(), -1);
  std::vector<int> parent;  // union-find forest over group ids
  std::function<int(int)> find = [&](int g) {
    while (parent[static_cast<size_t>(g)] != g) {
      g = parent[static_cast<size_t>(g)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(g)])];
    }
    return g;
  };

  for (int node_id : order) {
    int candidate = -1;
    for (int edge_id : InEdges(node_id)) {
      const GraphEdge& edge = edges_[static_cast<size_t>(edge_id)];
      if (edge.is_scan()) continue;
      if (GetSignature(node(edge.from_node).kind).pipeline_breaker) continue;
      int producer_group =
          find(group_of[static_cast<size_t>(edge.from_node)]);
      if (candidate == -1) {
        candidate = producer_group;
      } else if (candidate != producer_group) {
        parent[static_cast<size_t>(producer_group)] = candidate;  // merge
      }
    }
    if (candidate == -1) {
      candidate = static_cast<int>(parent.size());
      parent.push_back(candidate);
    }
    group_of[static_cast<size_t>(node_id)] = candidate;
  }

  // Build pipelines in dependency order (first appearance in topo order).
  std::map<int, int> pipeline_index;  // group root -> pipeline
  std::vector<Pipeline> pipelines;
  std::vector<int> pipeline_of(nodes_.size(), -1);
  for (int node_id : order) {
    const int root = find(group_of[static_cast<size_t>(node_id)]);
    auto [it, inserted] =
        pipeline_index.emplace(root, static_cast<int>(pipelines.size()));
    if (inserted) pipelines.emplace_back();
    pipeline_of[static_cast<size_t>(node_id)] = it->second;
    pipelines[static_cast<size_t>(it->second)].nodes.push_back(node_id);
  }

  for (const GraphEdge& edge : edges_) {
    if (!edge.is_scan()) continue;
    auto& pipeline =
        pipelines[static_cast<size_t>(pipeline_of[static_cast<size_t>(edge.to_node)])];
    pipeline.scan_edges.push_back(edge.id);
  }

  // Pipelines execute in index order; every breaker output must be fully
  // materialized before its consumers' pipeline starts.
  for (const GraphEdge& edge : edges_) {
    if (edge.is_scan()) continue;
    if (!GetSignature(node(edge.from_node).kind).pipeline_breaker) continue;
    if (pipeline_of[static_cast<size_t>(edge.from_node)] >=
        pipeline_of[static_cast<size_t>(edge.to_node)]) {
      return Status::NotSupported(
          node(edge.to_node).label + " consumes breaker output of " +
          node(edge.from_node).label +
          " but their pipelines are not dependency-ordered");
    }
  }

  for (size_t p = 0; p < pipelines.size(); ++p) {
    Pipeline& pipeline = pipelines[p];
    if (pipeline.scan_edges.empty()) {
      return Status::NotSupported("pipeline " + std::to_string(p) +
                                  " has no scan input (not driveable)");
    }
    pipeline.input_rows =
        edges_[static_cast<size_t>(pipeline.scan_edges[0])].column->length();
    for (int edge_id : pipeline.scan_edges) {
      const GraphEdge& edge = edges_[static_cast<size_t>(edge_id)];
      if (edge.column->length() != pipeline.input_rows) {
        return Status::InvalidArgument(
            "pipeline scans columns of different lengths (" +
            edge.column->name() + ")");
      }
    }
  }
  return pipelines;
}

}  // namespace adamant
