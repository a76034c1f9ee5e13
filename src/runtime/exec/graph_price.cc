#include "runtime/exec/graph_price.h"

#include "runtime/exec/plan_shapes.h"
#include "runtime/exec/run_context.h"
#include "task/primitive.h"

namespace adamant::exec {

Result<GraphPrice> PriceGraph(const PrimitiveGraph& graph,
                              const std::vector<Pipeline>& pipelines,
                              const ExecutionOptions& options,
                              DeviceManager* manager,
                              std::optional<DeviceId> device) {
  if (manager == nullptr) return Status::InvalidArgument("null manager");
  SimulatedDevice* fixed = nullptr;
  if (device.has_value()) {
    ADAMANT_ASSIGN_OR_RETURN(fixed, manager->GetDevice(*device));
  }
  auto device_of = [&](int node_id) -> SimulatedDevice* {
    if (fixed != nullptr) return fixed;
    auto dev = manager->GetDevice(graph.node(node_id).device);
    return dev.ok() ? *dev : nullptr;
  };
  const double scale = manager->data_scale();
  GraphPrice price;
  price.nodes.resize(graph.nodes().size());
  for (const Pipeline& pipeline : pipelines) {
    const size_t cap = PipelineChunkCapacity(pipeline, options, scale);
    const size_t chunk_count = ChunkSource(pipeline.input_rows, cap).total();
    const double chunks = static_cast<double>(chunk_count);
    const double input_rows = static_cast<double>(pipeline.input_rows);
    const double rows = input_rows * scale;

    // Every scan column crosses the bus once (pageable — the planner does
    // not know whether a run pins), plus one DMA setup per scan edge and
    // chunk. This keeps a PCIe-attached GPU from being credited its raw
    // kernel rate on scan-bound pipelines.
    double cost = 0;
    SimulatedDevice* scan_dev =
        pipeline.nodes.empty() ? fixed : device_of(pipeline.nodes.front());
    if (scan_dev != nullptr) {
      double scan_bytes = 0;
      for (int edge_id : pipeline.scan_edges) {
        const GraphEdge& edge = graph.edges()[static_cast<size_t>(edge_id)];
        scan_bytes +=
            input_rows * static_cast<double>(ElementSize(edge.elem_type)) *
            scale;
      }
      const sim::DevicePerfModel& model = scan_dev->perf_model();
      cost = model.TransferDuration(scan_bytes,
                                    sim::TransferDirection::kHostToDevice,
                                    /*pinned=*/false);
      cost += static_cast<double>(pipeline.scan_edges.size()) * chunks *
              model.transfer.latency_us;
    }

    // One launch of every node per chunk at full chunk cardinality.
    for (int node_id : pipeline.nodes) {
      SimulatedDevice* dev = device_of(node_id);
      if (dev == nullptr) continue;
      const GraphNode& graph_node = graph.node(node_id);
      const SimulatedDevice::LaunchPrice launch = dev->PriceLaunch(
          GetSignature(graph_node.kind).kernel_name, rows / chunks,
          options.kernel_threads, KernelBodies(graph_node));
      GraphPrice::NodePrice& node = price.nodes[static_cast<size_t>(node_id)];
      node.threads = launch.threads;
      node.cost_us = chunks * launch.total_us;
      cost += node.cost_us;
    }
    price.pipeline_cost_us.push_back(cost);
    price.pipeline_chunks.push_back(chunk_count);
    price.rows += rows;
    price.cost_us += cost;
  }
  return price;
}

Result<std::vector<GraphPrice>> PriceDevices(
    const PrimitiveGraph& graph, const ExecutionOptions& options,
    DeviceManager* manager, const std::vector<DeviceId>& devices) {
  if (devices.empty()) return Status::InvalidArgument("empty device set");
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());
  std::vector<GraphPrice> prices;
  prices.reserve(devices.size());
  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(
        GraphPrice price, PriceGraph(graph, pipelines, options, manager, id));
    prices.push_back(std::move(price));
  }
  return prices;
}

}  // namespace adamant::exec
