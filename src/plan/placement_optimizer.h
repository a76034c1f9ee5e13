#ifndef ADAMANT_PLAN_PLACEMENT_OPTIMIZER_H_
#define ADAMANT_PLAN_PLACEMENT_OPTIMIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "plan/calibration.h"
#include "plan/lowering.h"
#include "runtime/executor.h"

namespace adamant::plan {

/// What-if operator placement: the paper's conclusion names operator
/// placement as part of the "complex optimization space" ADAMANT exists to
/// explore — and a deterministic simulator makes the exploration trivial:
/// lower the plan under every candidate policy, simulate each run, keep the
/// fastest. Results are identical across candidates by construction (the
/// executor is placement-agnostic); only the schedule changes.
///
/// Candidates assign three primitive classes independently to the manager's
/// devices:
///   * streaming  — MAP, FILTER_*, MATERIALIZE*, PREFIX_SUM
///   * hash       — HASH_BUILD, HASH_PROBE, HASH_AGG, SORT_AGG
///   * sink       — AGG_BLOCK
/// With D plugged devices that is D^3 simulated runs.
struct PlacementSearchResult {
  PlacementPolicy best;
  std::string best_name;
  sim::SimTime best_elapsed_us = 0;
  /// Non-empty iff the winner is a device-parallel split: the partition
  /// device set, the per-device split ratios (parallel to the set), and the
  /// predicted per-partition cost (share x per-device graph price, us).
  std::vector<DeviceId> best_device_set;
  std::vector<double> best_split;
  std::vector<double> best_partition_cost_us;
  /// Every evaluated candidate: name -> simulated elapsed (us).
  std::vector<std::pair<std::string, sim::SimTime>> evaluated;
};

/// Every candidate compiles through CompileQuery (sql/compile.h) with its
/// policy. `calibration`, when given, rescales the device-parallel
/// candidates' model-predicted split ratios with observed per-device cost
/// ratios from earlier runs (the split feedback loop).
Result<PlacementSearchResult> SearchPlacements(
    const LogicalNode& root, const Catalog& catalog, DeviceManager* manager,
    const ExecutionOptions& options, const Calibration* calibration = nullptr);

/// Prediction of the device-parallel model's host-merge overhead for a
/// lowered graph. Interior (non-terminal) pipeline breakers force a full
/// round-trip per partition device — D2H every partition's persist, merge
/// on the host, H2D the union back — before the next pipeline may run; when
/// the persist is large (a fact-table hash build) that round-trip swamps
/// the compute savings of splitting the chunk range. SearchPlacements uses
/// this to reject merge-dominated device-parallel candidates without
/// simulating them.
struct MergeCostEstimate {
  /// Predicted wire + host time of all interior-breaker merges (us).
  sim::SimTime merge_cost_us = 0;
  /// Predicted compute saving vs the single-device baseline:
  /// baseline * (1 - max_share) — for an even N-way split that is the
  /// familiar baseline * (1 - 1/N); an asymmetric split is bounded by its
  /// largest partition.
  sim::SimTime savings_us = 0;
  /// Nominal (unscaled) bytes of interior-breaker persists.
  size_t interior_persist_bytes = 0;
  /// merge_cost_us > savings_us — the candidate is predicted to lose.
  bool merge_dominated = false;
};

/// `split`, when non-empty, holds the per-device shares (parallel to
/// `device_set`, any positive scale): savings shrink to the largest share's
/// partition, and each device's round-trip is priced with its *own*
/// transfer model instead of assuming the set is homogeneous.
Result<MergeCostEstimate> EstimateDeviceParallelMerge(
    const PrimitiveGraph& graph, DeviceManager* manager,
    const std::vector<DeviceId>& device_set, sim::SimTime baseline_elapsed_us,
    const std::vector<double>& split = {});

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_PLACEMENT_OPTIMIZER_H_
