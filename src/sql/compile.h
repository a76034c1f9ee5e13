#ifndef ADAMANT_SQL_COMPILE_H_
#define ADAMANT_SQL_COMPILE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "plan/calibration.h"
#include "plan/fusion.h"
#include "plan/lowering.h"
#include "runtime/exec/graph_price.h"
#include "runtime/executor.h"
#include "sql/planner.h"

namespace adamant {

/// What CompileQuery turns into a runnable plan. Set exactly one member.
struct QuerySource {
  /// SQL text, compiled by sql::Compile into a feedback-refined logical
  /// plan.
  std::string sql;
  /// An already compiled SQL query, lowered again: how the service re-targets
  /// a query it compiled once at Submit onto the devices it leased.
  std::shared_ptr<const sql::CompiledQuery> query;
  /// A logical plan; not owned, must outlive the call.
  const plan::LogicalNode* logical = nullptr;
  /// A hand-built bundle (plan::BuildQ*), already lowered.
  plan::PlanBundle bundle;
};

/// Where and how a source compiles.
struct CompileContext {
  /// Tables the SQL and logical sources read (unused for a bundle).
  const Catalog* catalog = nullptr;
  DeviceManager* manager = nullptr;
  /// Device annotation of every lowered primitive; its default device also
  /// prices the SQL planner's join orders.
  plan::PlacementPolicy placement;
  /// The run's knobs: model, chunk size, kernel variant, fusion mode, and
  /// the device-parallel set and optional explicit split.
  ExecutionOptions options;
  /// Feedback from earlier runs of `name`, or null. Not owned.
  const plan::Calibration* calibration = nullptr;
  std::string name;
};

/// A plan ready for QueryExecutor::Run(bundle.graph.get(), options), plus
/// what the compile derived on the way, for admission and EXPLAIN to read.
struct CompiledPlan {
  /// The (fused) graph; its named nodes and result node extract results.
  plan::PlanBundle bundle;
  /// The compiled SQL query, for SQL sources: sql::ExtractResults and
  /// sql::VerifyAgainstInterpreter read it together with `bundle`.
  std::shared_ptr<const sql::CompiledQuery> query;
  /// Validated run options. A device-parallel split's device_set and
  /// device_split are final.
  ExecutionOptions options;
  /// exec::PriceGraph: one per device of a device-parallel split (parallel
  /// to options.device_set), else one with nodes on their annotated devices.
  std::vector<exec::GraphPrice> prices;
  size_t memory_bytes = 0;  // per device, EstimateDeviceMemoryBytes
  plan::FusionReport fusion;
};

/// The one path from a query to a runnable plan. In order:
///   1. take the source: SQL text is compiled (sql::Compile, refined by the
///      calibration's observed selectivities for `name`);
///   2. lower it (plan::LowerPlan) under `placement`; a bundle is taken as
///      built;
///   3. size buffers from the calibration's observed peaks;
///   4. fuse under options.fusion (plan::ApplyFusion);
///   5. choose the device-parallel split when options name >= 2 devices:
///      explicit shares are normalized; otherwise the graph is priced on
///      each device, split by throughput, rescaled by the calibration's
///      observed cost ratios, and devices whose share falls below 4% leave
///      the set;
///   6. estimate device memory;
///   7. validate the options (ValidateExecutionOptions).
Result<CompiledPlan> CompileQuery(QuerySource source,
                                  const CompileContext& context);

}  // namespace adamant

#endif  // ADAMANT_SQL_COMPILE_H_
