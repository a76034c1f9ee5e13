#include <algorithm>
#include <map>

#include "runtime/exec/plan_shapes.h"
#include "runtime/executor.h"

namespace adamant {

Result<size_t> EstimateDeviceMemoryBytes(const PrimitiveGraph& graph,
                                         const ExecutionOptions& options,
                                         double data_scale) {
  ADAMANT_RETURN_NOT_OK(graph.Validate());
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());
  const exec::ModelTraits traits = exec::TraitsOf(options.model);
  // kDeviceParallel behaves like kChunked here on purpose: each partition
  // device holds every breaker persist (its own full-size copy, merged
  // between pipelines) plus the same per-chunk transients, so the
  // single-device chunked bound is the correct *per-device* bound for the
  // split, and the scheduler reserves it on every leased device.

  // Persists survive until the end of the run; transients peak within one
  // pipeline. Peak per device = all persists + the worst pipeline.
  std::map<DeviceId, size_t> persist_bytes;
  std::map<DeviceId, size_t> worst_pipeline;
  for (const Pipeline& pipeline : pipelines) {
    const size_t cap =
        exec::PipelineChunkCapacity(pipeline, options, data_scale);
    std::map<DeviceId, size_t> transient;

    // Scan staging. The 4-phase models stage scan chunks in *pinned host*
    // buffers (not charged against device memory); the ring holds
    // pipeline_depth device-resident slots; otherwise one transient device
    // buffer per distinct (column, device) per chunk.
    if (!traits.staged) {
      const size_t copies = traits.async && options.pipeline_depth > 0
                                ? options.pipeline_depth
                                : 1;
      std::map<std::pair<const Column*, DeviceId>, size_t> scans;
      for (int edge_id : pipeline.scan_edges) {
        const GraphEdge& edge = graph.edges()[static_cast<size_t>(edge_id)];
        const GraphNode& consumer = graph.node(edge.to_node);
        scans[{edge.column.get(), consumer.device}] =
            cap * ElementSize(edge.elem_type) * copies;
      }
      for (const auto& [key, bytes] : scans) transient[key.second] += bytes;
    }

    // Every output sized as the run sizes it, off the chunk capacity walked
    // through the pipeline (a MAP behind a MATERIALIZE holds the
    // materialize's slack, which can exceed the chunk capacity).
    const std::vector<size_t> in_caps =
        exec::PipelineInputCapacities(graph, pipeline, cap);
    for (size_t i = 0; i < pipeline.nodes.size(); ++i) {
      const GraphNode& node = graph.node(pipeline.nodes[i]);
      for (const exec::OutputPlanEntry& out :
           exec::PlanNodeOutputs(node, in_caps[i])) {
        transient[node.device] += out.bytes;
      }
      if (GetSignature(node.kind).pipeline_breaker) {
        ADAMANT_ASSIGN_OR_RETURN(exec::PersistShape shape,
                                 exec::PlanPersist(node, pipeline.input_rows));
        persist_bytes[node.device] += shape.bytes;
      }
    }
    for (const auto& [device, bytes] : transient) {
      worst_pipeline[device] = std::max(worst_pipeline[device], bytes);
    }
  }

  size_t peak_actual = 0;
  for (const auto& [device, bytes] : persist_bytes) {
    peak_actual = std::max(peak_actual, bytes + worst_pipeline[device]);
  }
  for (const auto& [device, bytes] : worst_pipeline) {
    peak_actual = std::max(peak_actual, bytes + persist_bytes[device]);
  }
  // Buffers charge arenas at nominal size (actual bytes × data scale).
  return static_cast<size_t>(static_cast<double>(peak_actual) * data_scale);
}

}  // namespace adamant
