#include "sql/compile.h"

#include <utility>

#include "runtime/exec/hetero_split.h"
#include "sql/engine.h"

namespace adamant {

namespace {

/// Devices whose calibrated share falls below this leave a device-parallel
/// split: a sliver partition costs more in merge round-trips than it saves.
constexpr double kMinSplitShare = 0.04;

/// Step 5: prices the graph and, for a device-parallel set, fixes the split.
Status PriceAndSplit(const CompileContext& context, CompiledPlan* out) {
  DeviceManager* manager = context.manager;
  const PrimitiveGraph& graph = *out->bundle.graph;
  ExecutionOptions& options = out->options;
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());
  const size_t n = options.device_set.size();
  if (options.model != ExecutionModelKind::kDeviceParallel || n < 2) {
    ADAMANT_ASSIGN_OR_RETURN(
        exec::GraphPrice price,
        exec::PriceGraph(graph, pipelines, options, manager));
    out->prices.push_back(std::move(price));
    return Status::OK();
  }
  for (DeviceId id : options.device_set) {
    ADAMANT_ASSIGN_OR_RETURN(
        exec::GraphPrice price,
        exec::PriceGraph(graph, pipelines, options, manager, id));
    out->prices.push_back(std::move(price));
  }
  if (!options.device_split.empty()) {
    // Explicit shares win; a mis-sized list is left for validation.
    if (options.device_split.size() == n) {
      options.device_split =
          exec::NormalizeSplit(std::move(options.device_split), n);
    }
    return Status::OK();
  }
  std::vector<double> weights = exec::ThroughputWeights(out->prices);
  if (context.calibration != nullptr) {
    std::vector<std::string> names;
    for (DeviceId id : options.device_set) {
      names.push_back(manager->device(id)->name());
    }
    weights = context.calibration->CalibrateWeights(names, std::move(weights));
  }
  std::vector<DeviceId> kept;
  std::vector<double> kept_weights;
  std::vector<exec::GraphPrice> kept_prices;
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] < kMinSplitShare) continue;
    kept.push_back(options.device_set[i]);
    kept_weights.push_back(weights[i]);
    kept_prices.push_back(out->prices[i]);
  }
  if (!kept.empty() && kept.size() < n) {
    options.device_set = std::move(kept);
    weights = exec::NormalizeSplit(std::move(kept_weights),
                                   options.device_set.size());
    out->prices = std::move(kept_prices);
  }
  options.device_split = std::move(weights);
  return Status::OK();
}

}  // namespace

Result<CompiledPlan> CompileQuery(QuerySource source,
                                  const CompileContext& context) {
  if (context.manager == nullptr) {
    return Status::InvalidArgument("CompileQuery needs a device manager");
  }
  CompiledPlan out;
  out.options = context.options;

  // 1-2. Source, lowered.
  if (context.catalog == nullptr && source.bundle.graph == nullptr) {
    return Status::InvalidArgument(
        "compiling SQL or a logical plan needs a catalog");
  }
  if (!source.sql.empty()) {
    sql::PlannerOptions planner;
    planner.manager = context.manager;
    planner.cost_device = context.placement.default_device;
    planner.feedback = context.calibration;
    planner.feedback_name = context.name;
    ADAMANT_ASSIGN_OR_RETURN(
        sql::CompiledQuery compiled,
        sql::Compile(source.sql, *context.catalog, planner));
    source.query =
        std::make_shared<const sql::CompiledQuery>(std::move(compiled));
  }
  out.query = std::move(source.query);
  const plan::LogicalNode* root =
      out.query != nullptr ? out.query->plan.get() : source.logical;
  if (root != nullptr) {
    ADAMANT_ASSIGN_OR_RETURN(
        out.bundle,
        plan::LowerPlan(*root, *context.catalog, context.placement));
  } else {
    out.bundle = std::move(source.bundle);
  }
  if (out.bundle.graph == nullptr) {
    return Status::InvalidArgument("CompileQuery: the source holds no query");
  }

  // 3. Feedback sizing.
  if (context.calibration != nullptr) {
    context.calibration->ApplyToGraph(context.name, out.bundle.graph.get());
  }
  // 4. Fusion.
  ADAMANT_ASSIGN_OR_RETURN(
      out.fusion,
      plan::ApplyFusion(&out.bundle, out.options, context.manager));
  // 5. Prices and the device-parallel split.
  ADAMANT_RETURN_NOT_OK(PriceAndSplit(context, &out));
  // 6. Memory.
  ADAMANT_ASSIGN_OR_RETURN(
      out.memory_bytes,
      EstimateDeviceMemoryBytes(*out.bundle.graph, out.options,
                                context.manager->data_scale()));
  // 7. Options.
  ADAMANT_RETURN_NOT_OK(ValidateExecutionOptions(out.options));
  return out;
}

}  // namespace adamant
