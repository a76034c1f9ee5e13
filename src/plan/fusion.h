#ifndef ADAMANT_PLAN_FUSION_H_
#define ADAMANT_PLAN_FUSION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "plan/tpch_plans.h"
#include "runtime/executor.h"

namespace adamant::plan {

/// What a fusion pass did to a plan, for --explain and JSON reports.
struct FusionReport {
  /// Fused composite nodes created.
  int groups = 0;
  /// Original primitives folded into composites (always >= 2 * groups).
  int nodes_fused = 0;
  /// One recipe label per group, e.g. "filter+filter+map+agg".
  std::vector<std::string> recipes;
};

/// Plan-level kernel fusion: walks the lowered primitive graph, identifies
/// fusable sub-DAGs — same-device chains of MAP / FILTER_BITMAP /
/// MATERIALIZE / AGG_BLOCK whose intermediates have no consumers outside
/// the chain and whose external inputs are all column scans — and rewrites
/// each into a single FUSED (streaming) or FUSED_AGG (breaker) composite
/// carrying the op sequence as a FusedStep recipe.
///
/// Gated by ExecutionOptions::fusion:
///   * kOff  — no-op.
///   * kOn   — every eligible group is fused.
///   * kAuto — a group is fused only when the device's per-launch price
///     (SimulatedDevice::PriceLaunch under the options' kernel variant)
///     says one fused launch beats the member kernels' launches
///     (`manager` supplies the devices; with a null manager kAuto fuses
///     everything, like kOn).
///
/// The rewrite preserves results bit-identically: the fused interpreter
/// replays each row's unfused fate, including store/load truncation between
/// kernels and predicate short-circuiting. Groups whose recipes cannot
/// guarantee that (NEQ_PREV maps, percentage maps whose operand is not an
/// int32 scan) are left unfused. `bundle->nodes` and `result_node` are
/// remapped to the rewritten graph.
Result<FusionReport> ApplyFusion(PlanBundle* bundle,
                                 const ExecutionOptions& options,
                                 DeviceManager* manager = nullptr);

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_FUSION_H_
