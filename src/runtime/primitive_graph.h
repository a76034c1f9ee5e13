#ifndef ADAMANT_RUNTIME_PRIMITIVE_GRAPH_H_
#define ADAMANT_RUNTIME_PRIMITIVE_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "storage/column.h"
#include "task/primitive.h"

namespace adamant {

/// Per-node configuration; only the fields relevant to the node's
/// PrimitiveKind are read.
struct NodeConfig {
  // MAP
  MapOp map_op = MapOp::kIdentity;
  ElementType in_type = ElementType::kInt32;
  ElementType out_type = ElementType::kInt32;
  int64_t imm = 0;

  // FILTER_*
  CmpOp cmp_op = CmpOp::kLt;
  int64_t lo = 0;
  int64_t hi = 0;
  /// ANDs the predicate into an incoming BITMAP (input slot 1) instead of
  /// overwriting — single-pass conjunction chains. Engineering extension to
  /// Table I's one-input FILTER_BITMAP.
  bool combine_and = false;

  // AGG_BLOCK / SORT_AGG
  AggOp agg_op = AggOp::kSum;

  /// HASH_AGG: one op per accumulator, 1 to HashTableLayout::
  /// kMaxAccumulators, so one node holds every aggregate of a GROUP BY.
  /// Accumulator a reads its values from input slot a + 1; a COUNT's slot
  /// stays empty (Table I).
  std::vector<AggOp> agg_ops;

  // HASH_PROBE
  ProbeMode probe_mode = ProbeMode::kAll;

  // HASH_BUILD / HASH_AGG: expected total inserted keys / distinct groups
  // across the whole input (drives table sizing and the contention model).
  double expected_build_rows = 0;
  /// True when expected_build_rows is data-dependent (scales with SF).
  bool build_rows_scale_with_data = true;

  /// Output-size estimate for variable-cardinality outputs (POSITION lists,
  /// materialized values, join pairs), as a fraction of the input capacity.
  /// 1.0 = worst case. Overflowing the estimate is an execution error.
  double selectivity = 1.0;

  // PREFIX_SUM
  bool exclusive = false;

  // SORT_AGG
  size_t num_groups = 0;

  /// FUSED / FUSED_AGG: the recipe (plan::FusionPass output). Input slot i
  /// of the node feeds load steps with operand a == i; a FUSED_AGG node
  /// also mirrors the terminal's op in agg_op so partition merging
  /// (device-parallel model) treats it like AGG_BLOCK.
  std::vector<FusedStep> fused_steps;
};

/// A primitive-graph node: one database primitive annotated with its target
/// device (the annotation the optimizer attaches per the paper's Fig. 2).
struct GraphNode {
  int id = -1;
  PrimitiveKind kind = PrimitiveKind::kMap;
  DeviceId device = 0;
  NodeConfig config;
  std::string label;
};

/// Single-kernel bodies one launch of `node` charges (KernelLaunch::
/// bodies): a HASH_AGG's accumulator count, 1 for every other kind.
inline int KernelBodies(const GraphNode& node) {
  return node.kind == PrimitiveKind::kHashAgg
             ? static_cast<int>(node.config.agg_ops.size())
             : 1;
}

/// A data edge. Sources are either another node's output slot or a host
/// column (a scan). Edges carry the paper's runtime annotations: unique data
/// ID, the producing device, and the chunking progress pointers
/// processed_until / fetched_until.
struct GraphEdge {
  int id = -1;             // data ID
  int from_node = -1;      // -1 => column scan source
  int from_slot = 0;
  int to_node = -1;
  int to_slot = 0;
  DataSemantic semantic = DataSemantic::kNumeric;
  ElementType elem_type = ElementType::kInt32;
  ColumnPtr column;        // set iff scan source

  // Chunk progress (elements), maintained by the execution models.
  size_t fetched_until = 0;
  size_t processed_until = 0;

  bool is_scan() const { return from_node < 0; }
};

/// A maximal breaker-terminated group of primitives executed together over
/// each chunk (Section III-B2 "Query Pipelines").
struct Pipeline {
  std::vector<int> nodes;       // execution order
  std::vector<int> scan_edges;  // column-source edges feeding the pipeline
  size_t input_rows = 0;        // common length of the scan columns
};

/// A query execution plan over primitives: nodes are primitives, edges are
/// data flow (Section III-C "Primitive Graph").
class PrimitiveGraph {
 public:
  /// Adds a primitive node targeted at `device`; returns its id.
  int AddNode(PrimitiveKind kind, DeviceId device, NodeConfig config = {},
              std::string label = std::string());

  /// Adds a scan edge from a host column into `(to_node, to_slot)`.
  Result<int> ConnectScan(ColumnPtr column, int to_node, int to_slot);

  /// Adds a node-to-node edge; the semantic is derived from the producer's
  /// signature output slot unless `semantic_override` is given (used e.g.
  /// when a gather over a POSITION column yields a POSITION list, or for
  /// GENERIC custom semantics). `elem_type` describes NUMERIC payloads.
  Result<int> Connect(int from_node, int from_slot, int to_node, int to_slot,
                      ElementType elem_type = ElementType::kInt32,
                      std::optional<DataSemantic> semantic_override = {});

  /// Structural validation: known slots, semantic compatibility
  /// (Section III-B3 I/O definitions), acyclicity, complete inputs.
  Status Validate() const;

  /// Topological node order (error on cycles).
  Result<std::vector<int>> TopoOrder() const;

  /// Splits the plan into pipelines at pipeline breakers. Requires a valid
  /// graph. Pipelines are returned in dependency order.
  Result<std::vector<Pipeline>> SplitPipelines() const;

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }
  const GraphNode& node(int id) const { return nodes_.at(static_cast<size_t>(id)); }
  /// Mutable node access for post-lowering placement rewrites (the
  /// device-parallel run retargets a cloned graph to one device).
  GraphNode& mutable_node(int id) { return nodes_.at(static_cast<size_t>(id)); }
  GraphEdge& edge(int id) { return edges_.at(static_cast<size_t>(id)); }

  /// Edge ids entering `node`, ordered by input slot.
  std::vector<int> InEdges(int node) const;
  /// Edge ids leaving `node`.
  std::vector<int> OutEdges(int node) const;
  /// True if no other node consumes any output of `node`.
  bool IsTerminal(int node) const;

  /// Resets chunk-progress pointers (query start).
  void ResetProgress();

  /// Total bytes of all distinct scan columns (the query's input size,
  /// Fig. 7-left).
  size_t InputBytes() const;

 private:
  Status ValidateNodeInputs(const GraphNode& node,
                            const std::vector<int>& in_edges) const;

  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
};

}  // namespace adamant

#endif  // ADAMANT_RUNTIME_PRIMITIVE_GRAPH_H_
