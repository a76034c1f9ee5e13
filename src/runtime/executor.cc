#include "runtime/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "runtime/exec/run_context.h"
#include "task/hash_table.h"

namespace adamant {

const char* ExecutionModelName(ExecutionModelKind kind) {
  switch (kind) {
    case ExecutionModelKind::kOperatorAtATime:
      return "operator-at-a-time";
    case ExecutionModelKind::kChunked:
      return "chunked";
    case ExecutionModelKind::kPipelined:
      return "pipelined";
    case ExecutionModelKind::kFourPhaseChunked:
      return "4-phase";
    case ExecutionModelKind::kFourPhasePipelined:
      return "4-phase-pipelined";
    case ExecutionModelKind::kDeviceParallel:
      return "device-parallel";
  }
  return "?";
}

const char* FusionModeName(FusionMode mode) {
  switch (mode) {
    case FusionMode::kOff:
      return "off";
    case FusionMode::kOn:
      return "on";
    case FusionMode::kAuto:
      return "auto";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Knob validation: the single authority for ExecutionOptions enums/ranges.
// ---------------------------------------------------------------------------

Status ValidateExecutionOptions(const ExecutionOptions& options) {
  switch (options.model) {
    case ExecutionModelKind::kOperatorAtATime:
    case ExecutionModelKind::kChunked:
    case ExecutionModelKind::kPipelined:
    case ExecutionModelKind::kFourPhaseChunked:
    case ExecutionModelKind::kFourPhasePipelined:
    case ExecutionModelKind::kDeviceParallel:
      break;
    default:
      return Status::InvalidArgument(
          "unknown execution model " +
          std::to_string(static_cast<int>(options.model)));
  }
  switch (options.fusion) {
    case FusionMode::kOff:
    case FusionMode::kOn:
    case FusionMode::kAuto:
      break;
    default:
      return Status::InvalidArgument(
          "unknown fusion mode " +
          std::to_string(static_cast<int>(options.fusion)));
  }
  if (options.kernel_threads < 0 || options.kernel_threads > 1024) {
    return Status::InvalidArgument(
        "kernel_threads must be in [0, 1024], got " +
        std::to_string(options.kernel_threads));
  }
  if (options.chunk_elems == 0) {
    return Status::InvalidArgument("chunk_elems must be positive");
  }
  if (options.pipeline_depth > 1024) {
    return Status::InvalidArgument(
        "pipeline_depth must be at most 1024, got " +
        std::to_string(options.pipeline_depth));
  }
  if (!options.device_split.empty()) {
    if (options.model != ExecutionModelKind::kDeviceParallel) {
      return Status::InvalidArgument(
          "device_split only applies to the device-parallel model");
    }
    if (options.device_set.empty() ||
        options.device_split.size() != options.device_set.size()) {
      return Status::InvalidArgument(
          "device_split must name one share per device_set entry (" +
          std::to_string(options.device_split.size()) + " shares for " +
          std::to_string(options.device_set.size()) + " devices)");
    }
    for (double share : options.device_split) {
      if (!(share > 0) || share > 1e9) {
        return Status::InvalidArgument(
            "device_split shares must be positive finite values");
      }
    }
  }
  return Status::OK();
}

Result<FusionMode> ParseFusionMode(const std::string& value) {
  if (value == "off") return FusionMode::kOff;
  if (value == "on") return FusionMode::kOn;
  if (value == "auto") return FusionMode::kAuto;
  return Status::InvalidArgument("unknown fusion mode '" + value +
                                 "' (expected off|on|auto)");
}

Result<ExecutionModelKind> ParseExecutionModel(const std::string& value) {
  if (value == "oaat") return ExecutionModelKind::kOperatorAtATime;
  if (value == "chunked") return ExecutionModelKind::kChunked;
  if (value == "pipelined") return ExecutionModelKind::kPipelined;
  if (value == "4phase") return ExecutionModelKind::kFourPhaseChunked;
  if (value == "4phase-pipelined") {
    return ExecutionModelKind::kFourPhasePipelined;
  }
  if (value == "device-parallel") return ExecutionModelKind::kDeviceParallel;
  return Status::InvalidArgument(
      "unknown execution model '" + value +
      "' (expected oaat|chunked|pipelined|4phase|4phase-pipelined|"
      "device-parallel)");
}

// ---------------------------------------------------------------------------
// The run record's JSON.
// ---------------------------------------------------------------------------

namespace {

// Every non-integer value of the record's JSON, at three decimals.
std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

std::string QueryStats::ToJson() const {
  std::ostringstream out;
  out << "{\"sim_elapsed_us\":" << Num(elapsed_us)
      << ",\"sim_kernel_body_us\":" << Num(kernel_body_us)
      << ",\"sim_transfer_wire_us\":" << Num(transfer_wire_us)
      << ",\"chunks\":" << chunks << ",\"bytes_h2d\":" << bytes_h2d
      << ",\"bytes_d2h\":" << bytes_d2h
      << ",\"scan_cache_hits\":" << scan_cache_hits
      << ",\"scan_cache_misses\":" << scan_cache_misses
      << ",\"bytes_h2d_saved\":" << bytes_h2d_saved
      << ",\"wall_merge_host_ms\":" << Num(merge_host_ms)
      << ",\"wall_run_ms\":" << Num(profile.run_ms);
  if (!profile.cancelled_cause.empty()) {
    out << ",\"cancelled\":\"" << obs::JsonEscape(profile.cancelled_cause)
        << "\"";
  }
  out << ",\"devices\":[";
  for (size_t i = 0; i < devices.size(); ++i) {
    const DeviceRunStats& d = devices[i];
    out << (i ? "," : "") << "{\"device\":" << i << ",\"name\":\""
        << obs::JsonEscape(d.name)
        << "\",\"sim_h2d_busy_us\":" << Num(d.h2d_busy_us)
        << ",\"sim_d2h_busy_us\":" << Num(d.d2h_busy_us)
        << ",\"sim_compute_busy_us\":" << Num(d.compute_busy_us)
        << ",\"sim_kernel_body_us\":" << Num(d.kernel_body_us)
        << ",\"sim_fused_body_us\":" << Num(d.fused_body_us)
        << ",\"sim_transfer_wire_us\":" << Num(d.transfer_wire_us)
        << ",\"execute_calls\":" << d.execute_calls
        << ",\"prepare_calls\":" << d.prepare_calls
        << ",\"fused_launches\":" << d.fused_launches
        << ",\"parallel_launches\":" << d.parallel_launches
        << ",\"kernel_threads\":" << d.kernel_threads
        << ",\"device_mem_high_water\":" << d.device_mem_high_water
        << ",\"pinned_mem_high_water\":" << d.pinned_mem_high_water;
    if (d.split_share > 0 || d.chunks > 0) {  // a device-parallel partition
      out << ",\"chunks\":" << d.chunks
          << ",\"split_share\":" << Num(d.split_share)
          << ",\"chunks_stolen\":" << d.chunks_stolen
          << ",\"sim_predicted_chunk_us\":" << Num(d.predicted_chunk_us)
          << ",\"sim_observed_chunk_us\":" << Num(d.observed_chunk_us);
    }
    out << ",\"sim_kernel_body_us_by_kernel\":{";
    const char* sep = "";
    for (const auto& [kernel, us] : d.kernel_body_by_name) {
      out << sep << "\"" << obs::JsonEscape(kernel) << "\":" << Num(us);
      sep = ",";
    }
    out << "}}";
  }
  out << "],\"pipelines\":[";
  for (size_t i = 0; i < profile.pipelines.size(); ++i) {
    const obs::PipelineProfile& pipeline = profile.pipelines[i];
    out << (i ? "," : "") << "{\"index\":" << pipeline.index
        << ",\"wall_ms\":" << Num(pipeline.wall_ms)
        << ",\"chunks\":" << pipeline.chunks;
    if (pipeline.cancelled) out << ",\"cancelled\":true";
    out << ",\"devices\":[";
    for (size_t j = 0; j < pipeline.devices.size(); ++j) {
      const obs::PipelineDeviceSlice& slice = pipeline.devices[j];
      out << (j ? "," : "") << "{\"device\":" << slice.device
          << ",\"sim_h2d_us\":" << Num(slice.sim_h2d_us)
          << ",\"sim_d2h_us\":" << Num(slice.sim_d2h_us)
          << ",\"sim_compute_us\":" << Num(slice.sim_compute_us) << "}";
    }
    out << "]}";
  }
  out << "]";
  if (!profile.operators.empty()) out << ",\"operators\":[";
  for (size_t i = 0; i < profile.operators.size(); ++i) {
    const obs::OperatorStats& op = profile.operators[i];
    out << (i ? "," : "") << "{\"node\":" << op.node_id
        << ",\"pipeline\":" << op.pipeline << ",\"kind\":\""
        << obs::JsonEscape(op.kind) << "\",\"label\":\""
        << obs::JsonEscape(op.label) << "\"";
    if (!op.feedback_key.empty()) {
      out << ",\"feedback_key\":\"" << obs::JsonEscape(op.feedback_key)
          << "\"";
    }
    out << ",\"rows_in\":" << op.rows_in << ",\"rows_out\":" << op.rows_out
        << ",\"predicted_rows_out\":" << Num(op.predicted_rows_out);
    if (op.selective) {
      out << ",\"predicted_selectivity\":" << Num(op.predicted_selectivity)
          << ",\"actual_selectivity\":" << Num(op.ActualSelectivity())
          << ",\"max_chunk_selectivity\":" << Num(op.max_chunk_selectivity);
    }
    if (op.selectivity_qerror > 0) {
      out << ",\"selectivity_qerror\":" << Num(op.selectivity_qerror);
    }
    if (op.cost_qerror > 0) out << ",\"cost_qerror\":" << Num(op.cost_qerror);
    out << ",\"sim_predicted_cost_us\":" << Num(op.predicted_cost_us)
        << ",\"wall_kernel_ms\":" << Num(op.kernel_ms)
        << ",\"wall_scalar_ms\":" << Num(op.scalar_ms)
        << ",\"wall_parallel_ms\":" << Num(op.parallel_ms)
        << ",\"wall_fused_ms\":" << Num(op.fused_ms)
        << ",\"launches\":" << op.launches
        << ",\"bytes_h2d\":" << op.bytes_h2d
        << ",\"bytes_d2h\":" << op.bytes_d2h
        << ",\"cache_hits\":" << op.cache_hits << ",\"devices\":[";
    for (size_t j = 0; j < op.devices.size(); ++j) {
      const obs::OperatorDeviceSlice& slice = op.devices[j];
      out << (j ? "," : "") << "{\"device\":" << slice.device
          << ",\"rows_in\":" << slice.rows_in
          << ",\"rows_out\":" << slice.rows_out
          << ",\"launches\":" << slice.launches
          << ",\"wall_kernel_ms\":" << Num(slice.kernel_ms) << "}";
    }
    out << "]}";
  }
  if (!profile.operators.empty()) out << "]";
  out << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// QueryExecution result accessors.
// ---------------------------------------------------------------------------

Result<const QueryExecution::NodeOutput*> QueryExecution::Output(
    int node_id) const {
  auto it = outputs_.find(node_id);
  if (it == outputs_.end()) {
    return Status::NotFound("no output for node " + std::to_string(node_id));
  }
  return &it->second;
}

Result<int64_t> QueryExecution::AggValue(int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  const bool agg_kind = output->kind == PrimitiveKind::kAggBlock ||
                        output->kind == PrimitiveKind::kFusedAgg;
  if (!agg_kind || output->bytes.size() != sizeof(int64_t)) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not an AGG_BLOCK result");
  }
  int64_t value;
  std::memcpy(&value, output->bytes.data(), sizeof(value));
  return value;
}

Result<std::vector<AggGroup>> QueryExecution::GroupResults(int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kHashAgg) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a HASH_AGG result");
  }
  std::vector<AggGroup> groups;
  if (output->num_slots == 0) return groups;
  const size_t slot_bytes = output->bytes.size() / output->num_slots;
  const size_t num_accs =
      (slot_bytes - HashTableLayout::kAggAccOffset) / sizeof(int64_t);
  if (slot_bytes != HashTableLayout::AggSlotBytes(num_accs) ||
      num_accs > HashTableLayout::kMaxAccumulators) {
    return Status::Internal("node " + std::to_string(node_id) +
                            ": malformed HASH_AGG table");
  }
  // Sort (key, slot) pairs, then copy each group's accumulators once.
  std::vector<std::pair<int32_t, size_t>> order;
  for (size_t i = 0; i < output->num_slots; ++i) {
    int32_t key;
    std::memcpy(&key, output->bytes.data() + i * slot_bytes, sizeof(key));
    if (key != HashTableLayout::kEmptyKey) order.emplace_back(key, i);
  }
  std::sort(order.begin(), order.end());
  groups.resize(order.size());
  for (size_t g = 0; g < order.size(); ++g) {
    groups[g].key = order[g].first;
    std::memcpy(groups[g].acc.data(),
                output->bytes.data() + order[g].second * slot_bytes +
                    HashTableLayout::kAggAccOffset,
                num_accs * sizeof(int64_t));
  }
  return groups;
}

Result<std::vector<std::pair<int32_t, int32_t>>> QueryExecution::BuildEntries(
    int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kHashBuild) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a HASH_BUILD result");
  }
  const auto* slots = reinterpret_cast<const HashTableLayout::BuildSlot*>(
      output->bytes.data());
  const size_t n = output->bytes.size() / sizeof(HashTableLayout::BuildSlot);
  std::vector<std::pair<int32_t, int32_t>> entries;
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].key != HashTableLayout::kEmptyKey) {
      entries.emplace_back(slots[i].key, slots[i].payload);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

Result<std::vector<int64_t>> QueryExecution::SortAggValues(int node_id) const {
  ADAMANT_ASSIGN_OR_RETURN(const NodeOutput* output, Output(node_id));
  if (output->kind != PrimitiveKind::kSortAgg) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not a SORT_AGG result");
  }
  std::vector<int64_t> values(output->bytes.size() / sizeof(int64_t));
  std::memcpy(values.data(), output->bytes.data(), output->bytes.size());
  return values;
}

// ---------------------------------------------------------------------------
// Executor: setup + the run + cleanup + stats finalization. The run loop
// and the device-parallel composite live under src/runtime/exec/.
// ---------------------------------------------------------------------------

Result<QueryExecution> QueryExecutor::Run(PrimitiveGraph* graph,
                                          const ExecutionOptions& options) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  if (manager_ == nullptr || manager_->num_devices() == 0) {
    return Status::InvalidArgument("no devices plugged");
  }
  ADAMANT_RETURN_NOT_OK(ValidateExecutionOptions(options));
  obs::TraceSpan query_span;
  if (obs::TracingEnabled()) {
    query_span.Start(obs::kHostTrack,
                     std::string("query:") + ExecutionModelName(options.model));
  }
  exec::RunContext context(manager_, graph, options);
  Status st = options.model == ExecutionModelKind::kDeviceParallel
                  ? exec::RunDeviceParallel(context)
                  : context.Run();
  // Delete phase / error cleanup: give every allocation back. Stats are
  // finalized on the error path too, so a stats_sink observes the partial
  // profile/operator tree of a cancelled or failed run.
  context.ReleaseAll();
  context.FinalizeStats();
  if (options.stats_sink != nullptr) *options.stats_sink = context.exec().stats;
  if (!st.ok()) return st;
  return context.TakeExecution();
}

}  // namespace adamant
