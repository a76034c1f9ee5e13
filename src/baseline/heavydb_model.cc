#include "baseline/heavydb_model.h"

#include <algorithm>
#include <map>

#include "task/hash_table.h"

namespace adamant::baseline {

namespace {

// HeavyDB's default wide column encoding.
constexpr double kColumnWidthBytes = 8.0;
// Join hash-table slot: key + payload columns.
constexpr double kJoinSlotBytes = 16.0;
// Materialized inner-join row-id pair.
constexpr double kJoinPairBytes = 16.0;
// Fraction of device memory the runtime keeps for itself.
constexpr double kRuntimeReservation = 0.15;
// Map rate of the reference GPU (RTX 2080 Ti) used to transfer the fused
// rate calibration across hardware setups.
constexpr double kReferenceMapRate = 45000.0;

}  // namespace

Result<HeavyDbRun> HeavyDbExecutor::Run(const PrimitiveGraph& graph,
                                        const HeavyDbOptions& options) const {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(gpu_));
  const sim::DevicePerfModel& model = dev->perf_model();
  const double scale = manager_->data_scale();
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());

  // Pipeline lookup: node id -> full input rows of its pipeline.
  std::map<int, double> pipeline_rows;
  for (const Pipeline& pipeline : pipelines) {
    for (int node_id : pipeline.nodes) {
      pipeline_rows[node_id] = static_cast<double>(pipeline.input_rows);
    }
  }

  // Join build sides: HeavyDB's optimizer builds on the smaller side of the
  // join, over the FULL table (no filter pushdown into the build).
  std::map<int, double> build_rows;  // build node -> chosen side rows
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != PrimitiveKind::kHashProbe) continue;
    for (int edge_id : graph.InEdges(node.id)) {
      const GraphEdge& edge = graph.edges()[static_cast<size_t>(edge_id)];
      if (edge.is_scan() || edge.semantic != DataSemantic::kHashTable) continue;
      const double smaller = std::min(pipeline_rows[edge.from_node],
                                      pipeline_rows[node.id]);
      build_rows[edge.from_node] = smaller;
    }
  }

  // --- In-place residency model ---
  //  * every referenced column fully resident at the wide default encoding;
  //  * join hash tables over the full (smaller) build side, 16-byte slots;
  //  * inner-join probe intermediates materialized as row-id pair lists;
  //  * a fraction of device memory reserved for the runtime.
  double column_elems = 0;
  {
    std::map<const Column*, bool> seen;
    for (const GraphEdge& edge : graph.edges()) {
      if (edge.is_scan() && !seen[edge.column.get()]) {
        seen[edge.column.get()] = true;
        column_elems += static_cast<double>(edge.column->length());
      }
    }
  }
  double resident = column_elems * kColumnWidthBytes;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == PrimitiveKind::kHashBuild) {
      const double rows = build_rows.count(node.id) > 0
                              ? build_rows[node.id]
                              : pipeline_rows[node.id];
      const size_t slots =
          HashTableLayout::SlotsFor(static_cast<size_t>(rows));
      resident += static_cast<double>(slots) * kJoinSlotBytes;
    } else if (node.kind == PrimitiveKind::kHashAgg) {
      const size_t slots = HashTableLayout::SlotsFor(
          static_cast<size_t>(node.config.expected_build_rows));
      resident += static_cast<double>(
          HashTableLayout::AggTableBytes(slots, node.config.agg_ops.size()));
    } else if (node.kind == PrimitiveKind::kHashProbe &&
               node.config.probe_mode == ProbeMode::kAll) {
      resident += pipeline_rows[node.id] * kJoinPairBytes;
    }
  }

  const double nominal_resident = resident * scale;
  const double budget = static_cast<double>(model.device_memory_bytes) *
                        (1.0 - kRuntimeReservation);
  HeavyDbRun run;
  run.resident_bytes = static_cast<size_t>(nominal_resident);
  if (nominal_resident > budget) {
    return Status::OutOfMemory(
        "HeavyDB in-place working set (" +
        std::to_string(static_cast<size_t>(nominal_resident / (1 << 20))) +
        " MiB nominal) exceeds usable device memory (" +
        std::to_string(static_cast<size_t>(budget / (1 << 20))) + " MiB)");
  }

  // --- Cold start: transfer every referenced column, whole ---
  if (options.with_transfer) {
    run.transfer_us =
        model.transfer.latency_us +
        model.TransferDuration(column_elems * kColumnWidthBytes * scale,
                               sim::TransferDirection::kHostToDevice,
                               /*pinned=*/false);
  }

  // --- Compiled execution: one fused row-wise kernel per pipeline, plus
  //     the hash-primitive work at the driver's calibrated rates ---
  const double fused_rate = options.fused_tuples_per_us *
                            model.Profile("map").tuples_per_us /
                            kReferenceMapRate;
  for (const Pipeline& pipeline : pipelines) {
    const double tuples = static_cast<double>(pipeline.input_rows) * scale;
    run.compute_us += model.kernel_launch_us + tuples / fused_rate;
  }
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == PrimitiveKind::kHashBuild) {
      const double rows =
          (build_rows.count(node.id) > 0 ? build_rows[node.id]
                                         : pipeline_rows[node.id]) *
          scale;
      const double slots = static_cast<double>(
          HashTableLayout::SlotsFor(static_cast<size_t>(rows)));
      run.compute_us += model.KernelDuration("hash_build", rows, slots);
    } else if (node.kind == PrimitiveKind::kHashAgg) {
      const double groups =
          node.config.expected_build_rows *
          (node.config.build_rows_scale_with_data ? scale : 1.0);
      run.compute_us += KernelBodies(node) *
                        model.KernelDuration(
                            "hash_agg", pipeline_rows[node.id] * scale, groups);
    }
  }

  run.elapsed_us = run.transfer_us + run.compute_us;
  return run;
}

}  // namespace adamant::baseline
