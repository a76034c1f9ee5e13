#include "plan/placement_optimizer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "runtime/exec/hetero_split.h"
#include "runtime/exec/plan_shapes.h"
#include "sql/compile.h"

namespace adamant::plan {

namespace {

/// Host-side merge throughput assumed for interior-breaker container unions
/// (hash-table entry rehash / partial-sum folds). Deliberately optimistic:
/// the gate should only fire when the round-trip wire time alone already
/// dominates.
constexpr double kHostMergeGibps = 8.0;

const PrimitiveKind kStreaming[] = {
    PrimitiveKind::kMap,         PrimitiveKind::kFilterBitmap,
    PrimitiveKind::kFilterPosition, PrimitiveKind::kMaterialize,
    PrimitiveKind::kMaterializePosition, PrimitiveKind::kPrefixSum};
const PrimitiveKind kHash[] = {PrimitiveKind::kHashBuild,
                               PrimitiveKind::kHashProbe,
                               PrimitiveKind::kHashAgg,
                               PrimitiveKind::kSortAgg};
const PrimitiveKind kSink[] = {PrimitiveKind::kAggBlock};

PlacementPolicy MakeCandidate(DeviceId streaming, DeviceId hash,
                              DeviceId sink) {
  PlacementPolicy policy;
  policy.default_device = streaming;
  for (PrimitiveKind kind : kStreaming) policy.by_kind[kind] = streaming;
  for (PrimitiveKind kind : kHash) policy.by_kind[kind] = hash;
  for (PrimitiveKind kind : kSink) policy.by_kind[kind] = sink;
  return policy;
}

}  // namespace

Result<MergeCostEstimate> EstimateDeviceParallelMerge(
    const PrimitiveGraph& graph, DeviceManager* manager,
    const std::vector<DeviceId>& device_set, sim::SimTime baseline_elapsed_us,
    const std::vector<double>& split) {
  if (manager == nullptr) return Status::InvalidArgument("null manager");
  if (device_set.empty()) {
    return Status::InvalidArgument("empty device set");
  }
  MergeCostEstimate estimate;
  const std::vector<double> shares =
      exec::NormalizeSplit(split, device_set.size());
  const double max_share = *std::max_element(shares.begin(), shares.end());
  // The split's elapsed is bounded by its largest partition; the even case
  // reduces to the familiar baseline * (1 - 1/N).
  estimate.savings_us = baseline_elapsed_us > 0
                            ? baseline_elapsed_us * (1.0 - max_share)
                            : 0.0;
  if (device_set.size() < 2) return estimate;

  const double scale = manager->data_scale();
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());
  for (const Pipeline& pipeline : pipelines) {
    for (int node_id : pipeline.nodes) {
      const GraphNode& node = graph.node(node_id);
      if (!GetSignature(node.kind).pipeline_breaker) continue;
      // Terminal breakers are merged once into the host-side result — no
      // redistribution; only interior breakers pay the full round-trip.
      if (graph.IsTerminal(node_id)) continue;
      ADAMANT_ASSIGN_OR_RETURN(
          exec::PersistShape shape,
          exec::PlanPersist(node, pipeline.input_rows));
      estimate.interior_persist_bytes += shape.bytes;
      const double wire_bytes = static_cast<double>(shape.bytes) * scale;
      // Gather every partition's persist, merge, redistribute the union —
      // each device over its own bus (a heterogeneous set mixes transfer
      // models, and the slow bus is usually the expensive leg).
      for (DeviceId id : device_set) {
        const sim::DevicePerfModel& model = manager->device(id)->perf_model();
        estimate.merge_cost_us +=
            (model.transfer.latency_us +
             model.TransferDuration(wire_bytes,
                                    sim::TransferDirection::kDeviceToHost,
                                    /*pinned=*/false)) +
            (model.transfer.latency_us +
             model.TransferDuration(wire_bytes,
                                    sim::TransferDirection::kHostToDevice,
                                    /*pinned=*/false));
      }
      estimate.merge_cost_us += sim::TransferUs(wire_bytes, kHostMergeGibps);
    }
  }
  estimate.merge_dominated =
      baseline_elapsed_us > 0 && estimate.merge_cost_us > estimate.savings_us;
  return estimate;
}

Result<PlacementSearchResult> SearchPlacements(
    const LogicalNode& root, const Catalog& catalog, DeviceManager* manager,
    const ExecutionOptions& options, const Calibration* calibration) {
  if (manager == nullptr || manager->num_devices() == 0) {
    return Status::InvalidArgument("no devices plugged");
  }

  PlacementSearchResult result;
  bool have_best = false;
  // Every candidate compiles the way it would run: lowered under its
  // policy, fused, and (device-parallel) split under `calibration`.
  auto compile = [&](const PlacementPolicy& policy,
                     const ExecutionOptions& run_options) {
    CompileContext context;
    context.catalog = &catalog;
    context.manager = manager;
    context.placement = policy;
    context.options = run_options;
    context.calibration = calibration;
    QuerySource source;
    source.logical = &root;
    return CompileQuery(std::move(source), context);
  };
  // Simulates one compiled candidate and keeps the fastest; a
  // device-parallel winner reports its split. A candidate can legitimately
  // fail (a hash table exceeds one device's memory, a global breaker
  // rejects the device-parallel model); it is recorded.
  auto simulate = [&](const std::string& name, const PlacementPolicy& policy,
                      CompiledPlan* plan) {
    QueryExecutor executor(manager);
    auto exec = executor.Run(plan->bundle.graph.get(), plan->options);
    if (!exec.ok()) {
      result.evaluated.emplace_back(
          name + " (" + exec.status().ToString() + ")", -1.0);
      return;
    }
    result.evaluated.emplace_back(name, exec->stats.elapsed_us);
    if (have_best && exec->stats.elapsed_us >= result.best_elapsed_us) return;
    have_best = true;
    result.best = policy;
    result.best_name = name;
    result.best_elapsed_us = exec->stats.elapsed_us;
    const bool split = plan->prices.size() > 1;
    const ExecutionOptions& run = plan->options;
    result.best_device_set = split ? run.device_set : std::vector<DeviceId>{};
    result.best_split = split ? run.device_split : std::vector<double>{};
    result.best_partition_cost_us.clear();
    for (size_t i = 0; split && i < plan->prices.size(); ++i) {
      result.best_partition_cost_us.push_back(plan->prices[i].cost_us *
                                              run.device_split[i]);
    }
  };

  const auto devices = static_cast<DeviceId>(manager->num_devices());
  for (DeviceId streaming = 0; streaming < devices; ++streaming) {
    for (DeviceId hash = 0; hash < devices; ++hash) {
      for (DeviceId sink = 0; sink < devices; ++sink) {
        const std::string name =
            "streaming=" + manager->device(streaming)->name() +
            ",hash=" + manager->device(hash)->name() +
            ",sink=" + manager->device(sink)->name();
        const PlacementPolicy policy = MakeCandidate(streaming, hash, sink);
        ADAMANT_ASSIGN_OR_RETURN(CompiledPlan plan, compile(policy, options));
        simulate(name, policy, &plan);
      }
    }
  }
  // Device-parallel candidates beyond the D^3 single-device grid. The
  // driver retargets every node itself, so the policy only decides what a
  // partition looks like; use the all-on-first-set-member placement. Two
  // shapes: the largest identical-device group, and — when the manager
  // mixes device classes — every plugged device. Both split by the
  // compile's (calibrated) throughput ratio.
  auto try_device_parallel = [&](const std::vector<DeviceId>& set,
                                 bool hetero) -> Status {
    const PlacementPolicy policy = MakeCandidate(set[0], set[0], set[0]);
    ExecutionOptions parallel = options;
    parallel.model = ExecutionModelKind::kDeviceParallel;
    parallel.device_set = set;
    parallel.device_split.clear();
    ADAMANT_ASSIGN_OR_RETURN(CompiledPlan plan, compile(policy, parallel));
    const std::vector<DeviceId>& split_set = plan.options.device_set;
    const std::vector<double>& split = plan.options.device_split;
    std::string name = hetero ? "device-parallel-hetero{" : "device-parallel{";
    for (size_t i = 0; i < split_set.size(); ++i) {
      if (i > 0) name += ",";
      name += manager->device(split_set[i])->name();
      if (hetero) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), ":%.2f", split[i]);
        name += buf;
      }
    }
    name += "}";
    // Merge-cost gate: when the interior-breaker round-trip is predicted to
    // eat the compute savings of the split, don't even simulate the
    // candidate (Q4 across two GPUs, where a fact-table HASH_BUILD union
    // dominates the split; parity_matrix_test's
    // SimulatedClockGates.DeviceParallelScalingAndMergeGate holds it).
    ADAMANT_ASSIGN_OR_RETURN(
        MergeCostEstimate merge,
        EstimateDeviceParallelMerge(*plan.bundle.graph, manager, split_set,
                                    have_best ? result.best_elapsed_us : 0,
                                    split));
    if (have_best && merge.merge_dominated) {
      result.evaluated.emplace_back(
          name + " (rejected: predicted merge " +
              std::to_string(static_cast<long long>(merge.merge_cost_us)) +
              "us > savings " +
              std::to_string(static_cast<long long>(merge.savings_us)) + "us)",
          -1.0);
      return Status::OK();
    }
    simulate(name, policy, &plan);
    return Status::OK();
  };
  ADAMANT_ASSIGN_OR_RETURN(std::vector<DeviceId> set,
                           ChooseDeviceSet(manager, 0));
  if (set.size() >= 2) {
    ADAMANT_RETURN_NOT_OK(try_device_parallel(set, /*hetero=*/false));
  }
  auto hetero = ChooseHeterogeneousDeviceSet(manager, 0);
  if (hetero.ok() && hetero->size() >= 2) {
    ADAMANT_RETURN_NOT_OK(try_device_parallel(*hetero, /*hetero=*/true));
  }

  if (!have_best) {
    return Status::ExecutionError("every placement candidate failed");
  }
  return result;
}

Result<std::vector<DeviceId>> ChooseDeviceSet(DeviceManager* manager,
                                              size_t max_devices) {
  if (manager == nullptr || manager->num_devices() == 0) {
    return Status::InvalidArgument("no devices plugged");
  }
  std::map<std::string, std::vector<DeviceId>> groups;
  for (size_t i = 0; i < manager->num_devices(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    groups[manager->device(id)->perf_model().name].push_back(id);
  }
  const std::vector<DeviceId>* best = nullptr;
  for (const auto& [model_name, ids] : groups) {
    if (best == nullptr || ids.size() > best->size()) best = &ids;
  }
  std::vector<DeviceId> set = *best;  // already sorted: ids ascend per group
  if (max_devices > 0 && set.size() > max_devices) set.resize(max_devices);
  return set;
}

Result<std::vector<DeviceId>> ChooseHeterogeneousDeviceSet(
    DeviceManager* manager, size_t max_devices) {
  if (manager == nullptr || manager->num_devices() == 0) {
    return Status::InvalidArgument("no devices plugged");
  }
  std::set<std::string> models;
  std::vector<DeviceId> set;
  for (size_t i = 0; i < manager->num_devices(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    models.insert(manager->device(id)->perf_model().name);
    set.push_back(id);
  }
  if (models.size() < 2) {
    return Status::NotFound(
        "all plugged devices share one performance model; use "
        "ChooseDeviceSet");
  }
  if (max_devices > 0 && set.size() > max_devices) set.resize(max_devices);
  return set;
}

}  // namespace adamant::plan
