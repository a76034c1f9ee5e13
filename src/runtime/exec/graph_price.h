#ifndef ADAMANT_RUNTIME_EXEC_GRAPH_PRICE_H_
#define ADAMANT_RUNTIME_EXEC_GRAPH_PRICE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"

namespace adamant::exec {

/// Static price of one graph's chunk stream, in simulated microseconds —
/// the one cost walk behind admission, the heterogeneous split, EXPLAIN
/// and EXPLAIN ANALYZE predictions. Per pipeline: the execution model's
/// chunk count, the scan columns crossing the bus once at the device's
/// pageable H2D bandwidth plus one DMA setup per scan edge and chunk, and
/// one launch of every node per chunk at full chunk cardinality, priced by
/// SimulatedDevice::PriceLaunch. Deliberately coarse — no selectivity, no
/// copy/compute overlap — because its readers need a stable, cheap
/// quantity, not a schedule.
struct GraphPrice {
  struct NodePrice {
    int threads = 1;     // the threads the node's launches run on
    double cost_us = 0;  // every launch of the node
  };
  /// Parallel to the priced pipelines.
  std::vector<double> pipeline_cost_us;
  std::vector<size_t> pipeline_chunks;
  /// Indexed by node id.
  std::vector<NodePrice> nodes;
  /// Scaled input rows over every pipeline.
  double rows = 0;
  double cost_us = 0;

  /// Scaled rows per simulated us: what a throughput split is
  /// proportional to.
  double throughput() const { return cost_us > 0 ? rows / cost_us : 0.0; }
};

/// Prices `pipelines` (graph.SplitPipelines()) under `options` — model,
/// chunk size and kernel threads. With `device` every node and transfer is
/// priced on that device; without, each node on its annotated device and
/// each pipeline's scans on its first node's device, and nodes whose device
/// is not plugged price at 0.
Result<GraphPrice> PriceGraph(const PrimitiveGraph& graph,
                              const std::vector<Pipeline>& pipelines,
                              const ExecutionOptions& options,
                              DeviceManager* manager,
                              std::optional<DeviceId> device = std::nullopt);

/// PriceGraph on each of `devices`, splitting the pipelines once: the
/// planning input of a throughput-proportional split.
Result<std::vector<GraphPrice>> PriceDevices(
    const PrimitiveGraph& graph, const ExecutionOptions& options,
    DeviceManager* manager, const std::vector<DeviceId>& devices);

}  // namespace adamant::exec

#endif  // ADAMANT_RUNTIME_EXEC_GRAPH_PRICE_H_
