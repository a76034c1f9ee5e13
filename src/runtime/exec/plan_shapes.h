#ifndef ADAMANT_RUNTIME_EXEC_PLAN_SHAPES_H_
#define ADAMANT_RUNTIME_EXEC_PLAN_SHAPES_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"

namespace adamant::exec {

/// How an execution model runs the one chunk loop (Section IV). The run
/// loop, EstimateDeviceMemoryBytes and PriceGraph all read these; nothing
/// else under src/runtime/exec decodes an ExecutionModelKind.
struct ModelTraits {
  /// A chunk holds the pipeline's whole input (operator-at-a-time).
  bool whole_input = false;
  /// Algorithm 3's stage phase: pinned double buffers per scan column and
  /// every intermediate output, allocated once per pipeline.
  bool staged = false;
  /// Transfers run ahead of execution (Algorithms 2 and 3-overlapped): the
  /// devices run async, and the run synchronizes at each pipeline breaker.
  /// With pipeline_depth > 0 an unstaged run bounds the lookahead with a
  /// ring of that many slots per scan column.
  bool async = false;
};

/// The traits of `kind`. Device-parallel partitions run the chunked loop,
/// so it shares chunked's traits.
ModelTraits TraitsOf(ExecutionModelKind kind);

/// Output-size estimate for variable-cardinality outputs, with slack so a
/// mildly-off selectivity does not overflow the buffer.
size_t EstimateElems(size_t input_capacity, double selectivity);

/// The input whose cardinality drives a node's output sizing: slot 1
/// (positions) for gathers, slot 0 otherwise.
int PrimaryInputSlot(const GraphNode& node);

/// The one buffer-sizing rule: every per-chunk output of `node` given its
/// primary input's element capacity, in allocation order (data slot 0, data
/// slot 1, count slot 2). The run, the stage phase and the memory estimate
/// all size from it. Breakers write into their persists and have none.
struct OutputPlanEntry {
  int slot;
  size_t bytes;
  DataSemantic semantic;
};
struct NodeOutputPlan {
  std::array<OutputPlanEntry, 3> entries{};
  size_t size = 0;
  /// Elements the data outputs hold: what the node's consumers size from.
  size_t capacity = 0;

  const OutputPlanEntry* begin() const { return entries.data(); }
  const OutputPlanEntry* end() const { return entries.data() + size; }
};
NodeOutputPlan PlanNodeOutputs(const GraphNode& node, size_t in_capacity);

/// The primary-input capacity of each node of `pipeline` (parallel to
/// pipeline.nodes) when its scans deliver `cap` rows: a scan input holds
/// `cap`, an input produced in the pipeline its producer's planned output
/// capacity. Capacities only grow with `cap`, so these bound every chunk's
/// bindings; the stage phase and EstimateDeviceMemoryBytes size from them.
std::vector<size_t> PipelineInputCapacities(const PrimitiveGraph& graph,
                                            const Pipeline& pipeline,
                                            size_t cap);

/// Sizing of a pipeline breaker's device-resident persist (shared by
/// RunContext::AllocatePersist and the footprint estimator). Fills bytes/
/// num_slots/capacity; device and buffer are the caller's business.
struct PersistShape {
  size_t bytes = 0;
  size_t num_slots = 0;
  size_t capacity = 0;
};
Result<PersistShape> PlanPersist(const GraphNode& node, size_t input_rows);

/// Chunk capacity (elements) the execution model uses for a pipeline:
/// the whole input for operator-at-a-time, otherwise the configured chunk
/// size scaled down to actual elements.
size_t PipelineChunkCapacity(const Pipeline& pipeline,
                             const ExecutionOptions& options, double scale);

}  // namespace adamant::exec

#endif  // ADAMANT_RUNTIME_EXEC_PLAN_SHAPES_H_
