#include "runtime/exec/run_context.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/exec/graph_price.h"
#include "runtime/exec/plan_shapes.h"
#include "task/hash_table.h"
#include "task/kernels.h"
#include "task/kernels_fused.h"

namespace adamant::exec {

RunContext::RunContext(DeviceManager* manager, PrimitiveGraph* graph,
                       const ExecutionOptions& options)
    : manager_(manager),
      graph_(graph),
      options_(options),
      traits_(TraitsOf(options.model)),
      hub_(manager, DataContainer::WithDefaultTransforms()) {
  hub_.set_scan_cache(options.scan_cache);
  hub_.set_memory_listener(options.memory_listener);
  hub_.set_cancel_token(options.cancel_token);
  run_start_ = std::chrono::steady_clock::now();
}

Status RunContext::Plan() {
  if (planned_) return Status::OK();
  ADAMANT_RETURN_NOT_OK(graph_->Validate());
  ADAMANT_ASSIGN_OR_RETURN(pipelines_, graph_->SplitPipelines());
  graph_->ResetProgress();
  planned_ = true;
  return Status::OK();
}

Status RunContext::Prepare(const std::vector<DeviceId>& device_override) {
  // Planned before the cancel check, so a run cancelled before dispatch
  // still finalizes one operator entry per node.
  ADAMANT_RETURN_NOT_OK(Plan());
  ADAMANT_RETURN_NOT_OK(CheckCancel());

  if (device_override.empty()) {
    for (const GraphNode& node : graph_->nodes()) {
      if (std::find(used_devices_.begin(), used_devices_.end(), node.device) ==
          used_devices_.end()) {
        used_devices_.push_back(node.device);
      }
    }
  } else {
    used_devices_ = device_override;
  }
  std::sort(used_devices_.begin(), used_devices_.end());
  used_devices_.erase(
      std::unique(used_devices_.begin(), used_devices_.end()),
      used_devices_.end());

  for (DeviceId id : used_devices_) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(id));
    dev->ResetTimelines();
    // A traced run keeps its engine bookings for the simulated-clock tracks
    // FinalizeStats records.
    dev->SetTimelineTracing(obs::TracingEnabled());
    dev->ResetStats();
    dev->device_arena().ResetHighWater();
    dev->pinned_arena().ResetHighWater();
    dev->SetAsyncMode(traits_.async);
  }
  return Status::OK();
}

Status RunContext::Run() {
  ADAMANT_RETURN_NOT_OK(Prepare());
  for (const Pipeline& pipeline : pipelines_) {
    const size_t cap = ChunkCapacity(pipeline);
    ADAMANT_RETURN_NOT_OK(BeginPipeline(pipeline, cap));
    ADAMANT_RETURN_NOT_OK(
        RunChunks(pipeline, 0, ChunkSource(pipeline.input_rows, cap).total(),
                  cap));
    if (!traits_.async) continue;
    // Threads synchronize at each pipeline breaker (Algorithm 2).
    for (int node_id : pipeline.nodes) {
      ADAMANT_ASSIGN_OR_RETURN(
          SimulatedDevice * dev,
          manager_->GetDevice(graph_->node(node_id).device));
      dev->Synchronize();
    }
  }
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  // Result delivery: terminal breaker outputs come back to the host.
  for (const GraphNode& node : graph_->nodes()) {
    if (!GetSignature(node.kind).pipeline_breaker) continue;
    if (!graph_->IsTerminal(node.id)) continue;
    ADAMANT_RETURN_NOT_OK(RetrieveBreaker(node));
  }
  for (DeviceId id : used_devices_) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(id));
    dev->Synchronize();
  }
  return Status::OK();
}

size_t RunContext::ChunkCapacity(const Pipeline& pipeline) const {
  return PipelineChunkCapacity(pipeline, options_, manager_->data_scale());
}

int RunContext::PipelineTrack(const Pipeline& pipeline) const {
  if (pipeline.nodes.empty()) return obs::kHostTrack;
  return static_cast<int>(graph_->node(pipeline.nodes.front()).device);
}

void RunContext::OpenPipeline(int index) {
  ClosePipeline();
  cur_pipeline_index_ = index;
  if (!options_.collect_profile) return;
  pipeline_start_ = std::chrono::steady_clock::now();
  pipeline_chunk_start_ = exec_.stats.chunks;
  for (DeviceId id : used_devices_) {
    auto dev = manager_->GetDevice(id);
    if (dev.ok()) pipeline_busy_snapshot_[id] = (*dev)->busy();
  }
}

void RunContext::ClosePipeline() {
  pipeline_span_.End();
  if (cur_pipeline_index_ < 0) return;
  const int index = cur_pipeline_index_;
  cur_pipeline_index_ = -1;
  if (!options_.collect_profile) return;
  obs::PipelineProfile profile;
  profile.index = index;
  profile.cancelled =
      options_.cancel_token != nullptr && options_.cancel_token->cancelled();
  profile.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - pipeline_start_)
          .count();
  profile.chunks = exec_.stats.chunks - pipeline_chunk_start_;
  for (const auto& [id, before] : pipeline_busy_snapshot_) {
    auto dev = manager_->GetDevice(id);
    if (!dev.ok()) continue;
    const SimulatedDevice::EngineBusy now = (*dev)->busy();
    profile.devices.push_back({static_cast<int>(id), now.h2d - before.h2d,
                               now.d2h - before.d2h,
                               now.compute - before.compute});
  }
  pipeline_busy_snapshot_.clear();
  exec_.stats.profile.pipelines.push_back(std::move(profile));
}

Status RunContext::BeginPipeline(const Pipeline& pipeline, size_t cap) {
  // A token that tripped after the previous pipeline stops the run before
  // this pipeline's profile entry opens, so only the pipeline executing when
  // it tripped is recorded as cancelled. The entry opens before anything is
  // booked, so its busy slices hold breaker persist fills too.
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  const int index = static_cast<int>(&pipeline - pipelines_.data());
  OpenPipeline(index);
  const size_t total_chunks = ChunkSource(pipeline.input_rows, cap).total();
  for (int node_id : pipeline.nodes) {
    const GraphNode& node = graph_->node(node_id);
    if (node.kind == PrimitiveKind::kPrefixSum && total_chunks > 1) {
      return Status::NotSupported(
          "PREFIX_SUM is a global breaker and cannot run chunked; use "
          "operator-at-a-time");
    }
    if (GetSignature(node.kind).pipeline_breaker) {
      ADAMANT_RETURN_NOT_OK(AllocatePersist(node, pipeline.input_rows));
    }
  }
  // The previous pipeline's devices are synchronized before a new pipeline
  // begins (an async run syncs after each chunk loop), so its scoped
  // transients can go back to the arenas now.
  FreeAll(&pipeline_allocs_);
  staged_scan_bufs_.clear();
  staged_outputs_.clear();
  ring_bufs_.clear();

  // Every run calls BeginPipeline exactly once per pipeline, so the span
  // opened here covers the pipeline's staging + chunk loop; it closes at the
  // next BeginPipeline / ReleaseAll / FinalizeStats.
  if (obs::TracingEnabled()) {
    pipeline_span_.Start(PipelineTrack(pipeline),
                         "pipeline:" + std::to_string(index));
    pipeline_span_.set_args("{\"chunks\":" + std::to_string(total_chunks) +
                            "}");
  }
  if (traits_.staged) return StageAllocations(pipeline, cap);
  if (traits_.async && options_.pipeline_depth > 0) {
    return AllocateRing(pipeline, cap);
  }
  return Status::OK();
}

Status RunContext::RunChunks(const Pipeline& pipeline, size_t chunk_begin,
                             size_t chunk_end, size_t cap) {
  const ChunkSource chunks(pipeline.input_rows, cap);
  chunk_end = std::min(chunk_end, chunks.total());
  const int track = PipelineTrack(pipeline);
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    ADAMANT_RETURN_NOT_OK(CheckCancel());
    const size_t base_row = chunks.base(c);
    const size_t n = chunks.rows(c);

    obs::TraceSpan chunk_span;
    if (obs::TracingEnabled()) {
      chunk_span.Start(track, "chunk:" + std::to_string(c));
      chunk_span.set_args("{\"rows\":" + std::to_string(n) + "}");
    }
    chunk_scan_cache_.clear();
    analyze_counts_.clear();
    for (int edge_id : pipeline.scan_edges) {
      ADAMANT_RETURN_NOT_OK(PlaceScanChunk(edge_id, c, base_row, n));
    }
    for (int node_id : pipeline.nodes) {
      ADAMANT_RETURN_NOT_OK(ExecuteNode(node_id, base_row, n));
    }
    for (int edge_id : pipeline.scan_edges) {
      graph_->edge(edge_id).processed_until += n;
    }
    FreeAll(&per_chunk_allocs_);
    ReleaseScanLeases();
    ++exec_.stats.chunks;
  }
  return Status::OK();
}

Status RunContext::PlaceScanChunk(int edge_id, size_t chunk, size_t base_row,
                                  size_t n) {
  GraphEdge& edge = graph_->edge(edge_id);
  const GraphNode& consumer = graph_->node(edge.to_node);
  const size_t elem = ElementSize(edge.elem_type);

  // EXPLAIN ANALYZE: attribute this placement's transfer bytes and cache
  // hits to the consuming operator, measured as hub-counter deltas so every
  // placement path (staged / ring / transient / cached) is covered.
  const bool analyze = options_.collect_operator_stats;
  const size_t h2d_before = analyze ? hub_.bytes_host_to_device() : 0;
  const size_t hits_before = analyze ? hub_.scan_cache_hits() : 0;

  // A column consumed by several primitives of one pipeline is placed on
  // the device once per chunk and the buffer shared.
  auto cached = chunk_scan_cache_.find(
      std::make_pair(edge.column.get(), consumer.device));
  if (cached != chunk_scan_cache_.end()) {
    edge_bindings_[edge_id] = cached->second;
    edge.fetched_until += n;
    return Status::OK();
  }

  BufferId buf;
  if (traits_.staged) {
    buf = staged_scan_bufs_.at(edge_id)[chunk % 2];
    ADAMANT_RETURN_NOT_OK(
        hub_.PlaceChunk(consumer.device, buf,
                        edge.column->raw_data() + base_row * elem, n * elem));
  } else if (auto ring = ring_bufs_.find(edge_id); ring != ring_bufs_.end()) {
    buf = ring->second[chunk % ring->second.size()];
    ADAMANT_RETURN_NOT_OK(
        hub_.PlaceChunk(consumer.device, buf,
                        edge.column->raw_data() + base_row * elem, n * elem));
  } else {
    // Transient per-chunk path: goes through the hub's scan-cache-aware
    // load. A hit reuses a device-resident chunk from an earlier query
    // (no transfer); a cached miss fills a cache-owned buffer we lease
    // until the chunk is consumed; otherwise we own a transient buffer.
    ADAMANT_ASSIGN_OR_RETURN(
        ScanBufferCache::Lease lease,
        hub_.LoadColumnChunk(consumer.device, edge.column, base_row, n,
                             elem));
    buf = lease.buffer;
    if (lease.cached) {
      chunk_lease_tokens_.push_back(lease.token);
    } else {
      per_chunk_allocs_.emplace_back(consumer.device, buf);
    }
  }
  edge.fetched_until += n;

  Binding binding;
  binding.data = buf;
  binding.capacity = n;
  binding.elem_type = edge.elem_type;
  binding.device = consumer.device;
  edge_bindings_[edge_id] = binding;
  chunk_scan_cache_[std::make_pair(edge.column.get(), consumer.device)] =
      binding;
  if (analyze) {
    obs::OperatorStats& op = op_stats_[edge.to_node];
    op.bytes_h2d += hub_.bytes_host_to_device() - h2d_before;
    op.cache_hits += hub_.scan_cache_hits() - hits_before;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node execution.
// ---------------------------------------------------------------------------

Result<Binding> RunContext::InputBinding(const GraphEdge& edge,
                                         DeviceId device) {
  auto it = edge_bindings_.find(edge.id);
  if (it == edge_bindings_.end()) {
    return Status::Internal("no binding for data edge " +
                            std::to_string(edge.id));
  }
  Binding binding = it->second;
  if (binding.device == device) return binding;

  // Cross-device edge: route through the host. Persisted breaker outputs
  // move once per query; streaming chunks move every chunk.
  const bool from_breaker =
      !edge.is_scan() &&
      GetSignature(graph_->node(edge.from_node).kind).pipeline_breaker;
  const size_t bytes = BindingBytes(edge, binding);
  // EXPLAIN ANALYZE: routed bytes are the consumer's cost.
  const bool analyze = options_.collect_operator_stats;
  const size_t h2d_before = analyze ? hub_.bytes_host_to_device() : 0;
  const size_t d2h_before = analyze ? hub_.bytes_device_to_host() : 0;
  auto attribute_route = [&]() {
    if (!analyze) return;
    obs::OperatorStats& op = op_stats_[edge.to_node];
    op.bytes_h2d += hub_.bytes_host_to_device() - h2d_before;
    op.bytes_d2h += hub_.bytes_device_to_host() - d2h_before;
  };
  if (from_breaker) {
    auto key = std::make_pair(edge.from_node, device);
    auto moved = moved_persists_.find(key);
    if (moved != moved_persists_.end()) {
      binding.data = moved->second;
      binding.device = device;
      return binding;
    }
    ADAMANT_ASSIGN_OR_RETURN(
        BufferId routed, hub_.Router(binding.device, binding.data, device, bytes));
    run_allocs_.emplace_back(device, routed);
    moved_persists_[key] = routed;
    binding.data = routed;
    binding.device = device;
    attribute_route();
    return binding;
  }

  ADAMANT_ASSIGN_OR_RETURN(
      BufferId routed, hub_.Router(binding.device, binding.data, device, bytes));
  per_chunk_allocs_.emplace_back(device, routed);
  if (binding.count != kInvalidBuffer) {
    ADAMANT_ASSIGN_OR_RETURN(BufferId routed_count,
                             hub_.Router(binding.device, binding.count,
                                         device, sizeof(int64_t)));
    per_chunk_allocs_.emplace_back(device, routed_count);
    binding.count = routed_count;
  }
  binding.data = routed;
  binding.device = device;
  attribute_route();
  return binding;
}

size_t RunContext::BindingBytes(const GraphEdge& edge,
                                const Binding& binding) const {
  if (edge.semantic == DataSemantic::kBitmap) {
    return bit_util::BytesForBits(binding.capacity);
  }
  if (edge.semantic == DataSemantic::kHashTable) {
    auto it = persists_.find(edge.from_node);
    return it != persists_.end() ? it->second.bytes : binding.capacity;
  }
  return binding.capacity * ElementSize(binding.elem_type);
}

Result<std::array<BufferId, 3>> RunContext::AllocateOutputs(
    const GraphNode& node, const NodeOutputPlan& plan,
    std::vector<std::pair<DeviceId, BufferId>>* allocs) {
  std::array<BufferId, 3> bufs;
  bufs.fill(kInvalidBuffer);
  for (const OutputPlanEntry& out : plan) {
    BufferId& buf = bufs[static_cast<size_t>(out.slot)];
    ADAMANT_ASSIGN_OR_RETURN(
        buf, hub_.PrepareOutputBuffer(node.device, out.semantic, out.bytes,
                                      /*pinned=*/false));
    allocs->emplace_back(node.device, buf);
  }
  return bufs;
}

Result<std::array<BufferId, 3>> RunContext::OutputBuffers(
    const GraphNode& node, const NodeOutputPlan& plan) {
  if (!traits_.staged) return AllocateOutputs(node, plan, &per_chunk_allocs_);
  auto it = staged_outputs_.find(node.id);
  if (it == staged_outputs_.end()) {
    return Status::Internal(node.label + ": outputs were not staged");
  }
  return it->second;
}

Status RunContext::AllocateRing(const Pipeline& pipeline, size_t cap) {
  std::map<std::pair<const Column*, DeviceId>, std::vector<BufferId>>
      ring_by_column;
  for (int edge_id : pipeline.scan_edges) {
    const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
    const GraphNode& consumer = graph_->node(edge.to_node);
    auto key = std::make_pair(edge.column.get(), consumer.device);
    auto it = ring_by_column.find(key);
    if (it == ring_by_column.end()) {
      std::vector<BufferId> slots(options_.pipeline_depth);
      for (BufferId& slot : slots) {
        ADAMANT_ASSIGN_OR_RETURN(
            slot, hub_.PrepareOutputBuffer(
                      consumer.device, DataSemantic::kNumeric,
                      cap * ElementSize(edge.elem_type), /*pinned=*/false));
        pipeline_allocs_.emplace_back(consumer.device, slot);
      }
      it = ring_by_column.emplace(key, std::move(slots)).first;
    }
    ring_bufs_[edge_id] = it->second;
  }
  return Status::OK();
}

Status RunContext::StageAllocations(const Pipeline& pipeline, size_t cap) {
  // Dual pinned buffers per distinct scan column (Fig. 8's two identical
  // spaces); edges sharing a column share the staging pair.
  std::map<std::pair<const Column*, DeviceId>, std::array<BufferId, 2>>
      staged_by_column;
  for (int edge_id : pipeline.scan_edges) {
    const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
    const GraphNode& consumer = graph_->node(edge.to_node);
    auto key = std::make_pair(edge.column.get(), consumer.device);
    auto it = staged_by_column.find(key);
    if (it == staged_by_column.end()) {
      const size_t bytes = cap * ElementSize(edge.elem_type);
      std::array<BufferId, 2> bufs{};
      for (int slot = 0; slot < 2; ++slot) {
        ADAMANT_ASSIGN_OR_RETURN(
            bufs[static_cast<size_t>(slot)],
            hub_.PrepareOutputBuffer(consumer.device, DataSemantic::kNumeric,
                                     bytes, /*pinned=*/true));
        pipeline_allocs_.emplace_back(consumer.device,
                                      bufs[static_cast<size_t>(slot)]);
      }
      it = staged_by_column.emplace(key, bufs).first;
    }
    staged_scan_bufs_[edge_id] = it->second;
  }

  // Intermediate result buffers, staged once and reused across chunks
  // ("utilizing the dedicated device memory to store intermediate
  // results").
  const std::vector<size_t> in_caps =
      PipelineInputCapacities(*graph_, pipeline, cap);
  for (size_t i = 0; i < pipeline.nodes.size(); ++i) {
    const GraphNode& node = graph_->node(pipeline.nodes[i]);
    ADAMANT_ASSIGN_OR_RETURN(
        staged_outputs_[node.id],
        AllocateOutputs(node, PlanNodeOutputs(node, in_caps[i]),
                        &pipeline_allocs_));
  }
  return Status::OK();
}

Status RunContext::ExecuteNode(int node_id, size_t base_row, size_t n) {
  const GraphNode& node = graph_->node(node_id);
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev,
                           manager_->GetDevice(node.device));

  // Fused composites take a variable number of inputs and launch the
  // recipe interpreter; they bind their own inputs and outputs.
  if (node.kind == PrimitiveKind::kFused ||
      node.kind == PrimitiveKind::kFusedAgg) {
    return ExecuteFusedNode(node, dev, base_row, n);
  }

  // Resolve inputs by slot: a HASH_AGG takes its keys and one values slot
  // per accumulator, every other kind at most two inputs.
  std::array<Binding, 1 + HashTableLayout::kMaxAccumulators> in{};
  std::array<bool, 1 + HashTableLayout::kMaxAccumulators> has_in{};
  for (int edge_id : graph_->InEdges(node_id)) {
    const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
    const auto slot = static_cast<size_t>(edge.to_slot);
    ADAMANT_ASSIGN_OR_RETURN(in[slot], InputBinding(edge, node.device));
    has_in[slot] = true;
  }

  // Every output buffer, sized off the primary input's capacity.
  const auto pslot = static_cast<size_t>(PrimaryInputSlot(node));
  const NodeOutputPlan plan = PlanNodeOutputs(node, in[pslot].capacity);
  ADAMANT_ASSIGN_OR_RETURN(const auto buf, OutputBuffers(node, plan));

  KernelLaunch launch;
  Binding out0, out1;
  out0.device = node.device;
  bool has_out1 = false;

  switch (node.kind) {
    case PrimitiveKind::kMap: {
      const Binding& a = in[0];
      if (a.elem_type != node.config.in_type) {
        return Status::InvalidArgument(node.label + ": input is " +
                                       ElementTypeName(a.elem_type) +
                                       ", config says " +
                                       ElementTypeName(node.config.in_type));
      }
      out0.data = buf[0];
      out0.count = a.count;
      out0.capacity = plan.capacity;
      out0.elem_type = node.config.out_type;
      launch = kernels::MakeMap(a.data, has_in[1] ? in[1].data : kInvalidBuffer,
                                out0.data, node.config.map_op,
                                node.config.in_type, node.config.out_type,
                                node.config.imm, a.capacity, a.count);
      break;
    }
    case PrimitiveKind::kFilterBitmap: {
      const Binding& a = in[0];
      if (node.config.combine_and && !has_in[1]) {
        return Status::InvalidArgument(node.label +
                                       ": combine filter needs a bitmap");
      }
      // A combining filter ANDs into its input bitmap.
      const BufferId bitmap = node.config.combine_and ? in[1].data : buf[0];
      out0.data = bitmap;
      out0.count = a.count;
      out0.capacity = plan.capacity;
      launch = kernels::MakeFilterBitmap(
          a.data, bitmap, node.config.cmp_op, a.elem_type, node.config.lo,
          node.config.hi, node.config.combine_and, a.capacity, a.count);
      break;
    }
    case PrimitiveKind::kFilterPosition: {
      const Binding& a = in[0];
      out0.data = buf[0];
      out0.count = buf[2];
      out0.capacity = plan.capacity;
      out0.elem_type = ElementType::kInt32;
      launch = kernels::MakeFilterPosition(
          a.data, out0.data, out0.count, node.config.cmp_op, a.elem_type,
          node.config.lo, node.config.hi, a.capacity, a.count);
      break;
    }
    case PrimitiveKind::kMaterialize: {
      const Binding& a = in[0];
      out0.data = buf[0];
      out0.count = buf[2];
      out0.capacity = plan.capacity;
      out0.elem_type = a.elem_type;
      launch = kernels::MakeMaterialize(a.data, in[1].data, out0.data,
                                        out0.count, a.elem_type, a.capacity,
                                        a.count);
      break;
    }
    case PrimitiveKind::kMaterializePosition: {
      const Binding& values = in[0];
      const Binding& positions = in[1];
      out0.data = buf[0];
      out0.count = positions.count;
      out0.capacity = plan.capacity;
      out0.elem_type = values.elem_type;
      launch = kernels::MakeMaterializePosition(
          values.data, positions.data, out0.data, values.elem_type,
          positions.capacity, positions.count);
      break;
    }
    case PrimitiveKind::kPrefixSum: {
      const Binding& a = in[0];
      Persist& persist = persists_.at(node_id);
      out0.data = persist.buffer;
      out0.count = a.count;
      out0.capacity = persist.capacity;
      out0.elem_type = ElementType::kInt32;
      launch = kernels::MakePrefixSum(a.data, persist.buffer,
                                      node.config.exclusive, a.capacity,
                                      a.count);
      break;
    }
    case PrimitiveKind::kAggBlock: {
      const Binding& a = in[0];
      Persist& persist = persists_.at(node_id);
      const bool init = !persist.initialized;
      persist.initialized = true;
      out0.data = persist.buffer;
      out0.capacity = 1;
      out0.elem_type = ElementType::kInt64;
      launch = kernels::MakeAggBlock(a.data, persist.buffer,
                                     node.config.agg_op, a.elem_type, init,
                                     a.capacity, a.count);
      break;
    }
    case PrimitiveKind::kHashBuild: {
      const Binding& keys = in[0];
      Persist& persist = persists_.at(node_id);
      out0.data = persist.buffer;
      out0.num_slots = persist.num_slots;
      launch = kernels::MakeHashBuild(
          keys.data, has_in[1] ? in[1].data : kInvalidBuffer, persist.buffer,
          persist.num_slots, static_cast<int64_t>(base_row), keys.capacity,
          keys.count);
      break;
    }
    case PrimitiveKind::kHashProbe: {
      const Binding& keys = in[0];
      const Binding& table = in[1];
      if (table.num_slots == 0) {
        return Status::Internal(node.label + ": probe table has no slots");
      }
      out0.data = buf[0];
      out0.count = buf[2];
      out0.capacity = plan.capacity;
      out0.elem_type = ElementType::kInt32;
      out1 = out0;
      out1.data = buf[1];
      has_out1 = true;
      launch = kernels::MakeHashProbe(keys.data, table.data, out0.data,
                                      out1.data, out0.count,
                                      table.num_slots, node.config.probe_mode,
                                      /*pos_base=*/0, keys.capacity,
                                      keys.count);
      break;
    }
    case PrimitiveKind::kHashAgg: {
      const Binding& keys = in[0];
      Persist& persist = persists_.at(node_id);
      out0.data = persist.buffer;
      out0.num_slots = persist.num_slots;
      std::vector<kernels::HashAggAccumulator> accs(
          node.config.agg_ops.size());
      for (size_t a = 0; a < accs.size(); ++a) {
        accs[a].op = node.config.agg_ops[a];
        if (has_in[a + 1]) {
          accs[a].values = in[a + 1].data;
          accs[a].value_type = in[a + 1].elem_type;
        }
      }
      launch = kernels::MakeHashAgg(
          keys.data, accs, persist.buffer, persist.num_slots, keys.capacity,
          node.config.expected_build_rows,
          node.config.build_rows_scale_with_data, keys.count);
      break;
    }
    case PrimitiveKind::kSortAgg: {
      const Binding& values = in[0];
      const Binding& pxsum = in[1];
      Persist& persist = persists_.at(node_id);
      const bool init = !persist.initialized;
      persist.initialized = true;
      out0.data = persist.buffer;
      out0.capacity = node.config.num_groups;
      out0.elem_type = ElementType::kInt64;
      launch = kernels::MakeSortAgg(values.data, pxsum.data, persist.buffer,
                                    node.config.agg_op, values.elem_type,
                                    node.config.num_groups, init,
                                    values.capacity, values.count);
      break;
    }
    case PrimitiveKind::kFused:
    case PrimitiveKind::kFusedAgg:
      return Status::Internal(node.label +
                              ": fused kinds are dispatched above");
  }

  return Launch(node, dev, std::move(launch),
                has_in[pslot] ? &in[pslot] : nullptr, out0,
                has_out1 ? &out1 : nullptr, base_row, n);
}

Status RunContext::ExecuteFusedNode(const GraphNode& node,
                                    SimulatedDevice* dev, size_t base_row,
                                    size_t n) {
  // Resolve inputs by slot — a fused group may read more than two scan
  // columns, so the fixed two-slot array in ExecuteNode does not apply.
  const size_t num_inputs = FusedNumInputs(node.config.fused_steps);
  std::vector<Binding> in(num_inputs);
  std::vector<bool> has_in(num_inputs, false);
  for (int edge_id : graph_->InEdges(node.id)) {
    const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
    const auto slot = static_cast<size_t>(edge.to_slot);
    if (slot >= num_inputs) {
      return Status::Internal(node.label + ": fused input slot " +
                              std::to_string(edge.to_slot) +
                              " has no load step");
    }
    ADAMANT_ASSIGN_OR_RETURN(in[slot], InputBinding(edge, node.device));
    has_in[slot] = true;
  }
  for (size_t i = 0; i < num_inputs; ++i) {
    if (!has_in[i]) {
      return Status::Internal(node.label + ": fused input slot " +
                              std::to_string(i) + " is unbound");
    }
  }
  const Binding& a = in[0];
  std::vector<BufferId> inputs(num_inputs);
  for (size_t i = 0; i < num_inputs; ++i) inputs[i] = in[i].data;

  KernelLaunch launch;
  Binding out0;
  out0.device = node.device;
  if (node.kind == PrimitiveKind::kFused) {
    const NodeOutputPlan plan = PlanNodeOutputs(node, a.capacity);
    ADAMANT_ASSIGN_OR_RETURN(const auto buf, OutputBuffers(node, plan));
    out0.data = buf[0];
    out0.count = buf[2];
    out0.capacity = plan.capacity;
    out0.elem_type = node.config.out_type;
    launch = kernels::MakeFused(inputs, out0.data, out0.count,
                                node.config.fused_steps, /*init=*/false,
                                a.capacity, a.count);
  } else {  // kFusedAgg: accumulate into the persist, like AGG_BLOCK.
    Persist& persist = persists_.at(node.id);
    const bool init = !persist.initialized;
    persist.initialized = true;
    out0.data = persist.buffer;
    out0.capacity = 1;
    out0.elem_type = ElementType::kInt64;
    launch = kernels::MakeFused(inputs, persist.buffer, kInvalidBuffer,
                                node.config.fused_steps, init, a.capacity,
                                a.count);
  }

  return Launch(node, dev, std::move(launch), &a, out0, nullptr, base_row, n);
}

Status RunContext::Launch(const GraphNode& node, SimulatedDevice* dev,
                          KernelLaunch launch, const Binding* primary_in,
                          const Binding& out0, const Binding* out1,
                          size_t base_row, size_t n) {
  launch.num_threads = options_.kernel_threads;
  launch.cancel = options_.cancel_token;
  const bool fused = node.kind == PrimitiveKind::kFused ||
                     node.kind == PrimitiveKind::kFusedAgg;
  const PrimitiveSignature& signature = GetSignature(node.kind);
  const bool breaker = signature.pipeline_breaker;

  // EXPLAIN ANALYZE: the primary input's valid-row count is known before
  // the launch (its producer already ran this chunk).
  int64_t rows_in = static_cast<int64_t>(n);
  if (options_.collect_operator_stats && primary_in != nullptr) {
    ADAMANT_ASSIGN_OR_RETURN(rows_in, BindingRows(*primary_in));
  }

  {
    static obs::Counter* launches =
        obs::GlobalMetrics().GetCounter("adamant_kernel_launches_total");
    launches->Increment();
    obs::TraceSpan kernel_span;
    if (obs::TracingEnabled()) {
      // A fused group's span is named after its recipe, so traces show what
      // the composite replaced (e.g. fused:filter+filter+map+agg).
      kernel_span.Start(static_cast<int>(node.device),
                        fused ? "fused:" +
                                    FusedRecipeLabel(node.config.fused_steps)
                              : "kernel:" + node.label);
    }
    std::chrono::steady_clock::time_point kernel_start;
    if (options_.collect_operator_stats) {
      kernel_start = std::chrono::steady_clock::now();
    }
    ADAMANT_RETURN_NOT_OK(
        dev->Execute(launch).WithContext(node.label).WithDevice(node.device));
    if (options_.collect_operator_stats) {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - kernel_start)
                                 .count();
      // Kinds sized by selectivity write a fresh count and report measured
      // output rows; the rest pass their input cardinality through.
      // Breakers defer to FinalizeOperatorStats.
      int64_t rows_out = rows_in;
      if (signature.sized_by_selectivity) {
        ADAMANT_ASSIGN_OR_RETURN(rows_out, BindingRows(out0));
      }
      RecordOperatorSample(node, dev, static_cast<uint64_t>(rows_in),
                           static_cast<uint64_t>(rows_out), !breaker, wall_ms);
    }
  }

  // Publish outputs on the outgoing edges.
  for (int edge_id : graph_->OutEdges(node.id)) {
    const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
    edge_bindings_[edge_id] =
        edge.from_slot == 1 && out1 != nullptr ? *out1 : out0;
  }

  // Terminal streaming outputs (non-breaker leaves) come back per chunk;
  // breakers are retrieved through their persist at the end of the run.
  if (graph_->IsTerminal(node.id) && !breaker) {
    ADAMANT_RETURN_NOT_OK(RetrieveStreaming(node, out0, out1, base_row, n));
  }
  return Status::OK();
}

Status RunContext::AllocatePersist(const GraphNode& node, size_t input_rows) {
  if (persists_.count(node.id) > 0) return Status::OK();
  ADAMANT_ASSIGN_OR_RETURN(PersistShape shape, PlanPersist(node, input_rows));
  Persist persist;
  persist.device = node.device;
  persist.bytes = shape.bytes;
  persist.num_slots = shape.num_slots;
  persist.capacity = shape.capacity;
  const DataSemantic semantic = node.kind == PrimitiveKind::kHashBuild ||
                                        node.kind == PrimitiveKind::kHashAgg
                                    ? DataSemantic::kHashTable
                                    : DataSemantic::kNumeric;
  ADAMANT_ASSIGN_OR_RETURN(
      persist.buffer,
      hub_.PrepareOutputBuffer(node.device, semantic, persist.bytes, false));
  run_allocs_.emplace_back(node.device, persist.buffer);
  persists_[node.id] = persist;
  return Status::OK();
}

Status RunContext::RetrieveStreaming(const GraphNode& node,
                                     const Binding& out0, const Binding* out1,
                                     size_t base_row, size_t n) {
  QueryExecution::NodeOutput& output = exec_.mutable_outputs()[node.id];
  output.kind = node.kind;
  output.elem_type = out0.elem_type;

  obs::TraceSpan d2h_span;
  if (obs::TracingEnabled()) {
    d2h_span.Start(static_cast<int>(node.device), "d2h:" + node.label);
  }
  QueryExecution::ChunkPart part;
  part.base_row = base_row;
  if (out0.count != kInvalidBuffer) {
    ADAMANT_RETURN_NOT_OK(hub_.RetrieveData(node.device, out0.count,
                                            &part.count, sizeof(int64_t)));
  } else {
    part.count = static_cast<int64_t>(n);
  }
  size_t bytes;
  if (node.kind == PrimitiveKind::kFilterBitmap) {
    bytes = bit_util::BytesForBits(n);
  } else {
    bytes = static_cast<size_t>(part.count) * ElementSize(out0.elem_type);
  }
  part.data.resize(bytes);
  if (bytes > 0) {
    ADAMANT_RETURN_NOT_OK(
        hub_.RetrieveData(node.device, out0.data, part.data.data(), bytes));
  }
  if (out1 != nullptr) {
    part.data2.resize(static_cast<size_t>(part.count) * sizeof(int32_t));
    if (!part.data2.empty()) {
      ADAMANT_RETURN_NOT_OK(hub_.RetrieveData(
          node.device, out1->data, part.data2.data(), part.data2.size()));
    }
  }
  if (options_.collect_operator_stats) {
    obs::OperatorStats& op = op_stats_[node.id];
    if (out0.count != kInvalidBuffer) op.bytes_d2h += sizeof(int64_t);
    op.bytes_d2h += part.data.size() + part.data2.size();
  }
  output.parts.push_back(std::move(part));
  return Status::OK();
}

Status RunContext::RetrieveBreaker(const GraphNode& node) {
  auto it = persists_.find(node.id);
  if (it == persists_.end()) {
    return Status::Internal(node.label + ": breaker has no persist");
  }
  const Persist& persist = it->second;
  QueryExecution::NodeOutput& output = exec_.mutable_outputs()[node.id];
  output.kind = node.kind;
  output.num_slots = persist.num_slots;
  output.bytes.resize(persist.bytes);
  obs::TraceSpan d2h_span;
  if (obs::TracingEnabled()) {
    d2h_span.Start(static_cast<int>(persist.device), "d2h:" + node.label);
    d2h_span.set_args("{\"bytes\":" + std::to_string(persist.bytes) + "}");
  }
  if (options_.collect_operator_stats) {
    op_stats_[node.id].bytes_d2h += persist.bytes;
  }
  return hub_.RetrieveData(persist.device, persist.buffer, output.bytes.data(),
                           persist.bytes);
}

// ---------------------------------------------------------------------------
// Device-parallel partition support.
// ---------------------------------------------------------------------------

const Persist* RunContext::FindPersist(int node_id) const {
  auto it = persists_.find(node_id);
  return it == persists_.end() ? nullptr : &it->second;
}

Result<std::vector<uint8_t>> RunContext::ReadPersistBytes(int node_id) {
  auto it = persists_.find(node_id);
  if (it == persists_.end()) {
    return Status::Internal("node " + std::to_string(node_id) +
                            " has no persist to read");
  }
  const Persist& persist = it->second;
  std::vector<uint8_t> bytes(persist.bytes);
  ADAMANT_RETURN_NOT_OK(hub_.RetrieveData(persist.device, persist.buffer,
                                          bytes.data(), persist.bytes));
  return bytes;
}

Status RunContext::PlacePersistBytes(int node_id, const void* data,
                                     size_t bytes) {
  auto it = persists_.find(node_id);
  if (it == persists_.end()) {
    return Status::Internal("node " + std::to_string(node_id) +
                            " has no persist to place into");
  }
  Persist& persist = it->second;
  if (bytes != persist.bytes) {
    return Status::Internal("merged persist size mismatch for node " +
                            std::to_string(node_id));
  }
  ADAMANT_RETURN_NOT_OK(
      hub_.PlaceChunk(persist.device, persist.buffer, data, bytes));
  persist.initialized = true;
  return Status::OK();
}

Status RunContext::BindPersistOutputs(const Pipeline& pipeline) {
  for (int node_id : pipeline.nodes) {
    const GraphNode& node = graph_->node(node_id);
    if (!GetSignature(node.kind).pipeline_breaker) continue;
    auto it = persists_.find(node_id);
    if (it == persists_.end()) {
      return Status::Internal(node.label + ": breaker has no persist to bind");
    }
    const Persist& persist = it->second;
    Binding binding;
    binding.data = persist.buffer;
    binding.device = persist.device;
    binding.num_slots = persist.num_slots;
    switch (node.kind) {
      case PrimitiveKind::kAggBlock:
      case PrimitiveKind::kFusedAgg:
        binding.capacity = 1;
        binding.elem_type = ElementType::kInt64;
        break;
      case PrimitiveKind::kSortAgg:
        binding.capacity = persist.capacity;
        binding.elem_type = ElementType::kInt64;
        break;
      case PrimitiveKind::kPrefixSum:
        binding.capacity = persist.capacity;
        binding.elem_type = ElementType::kInt32;
        break;
      default:  // hash tables carry their slot count, not a capacity
        break;
    }
    for (int edge_id : graph_->OutEdges(node_id)) {
      edge_bindings_[edge_id] = binding;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cleanup and accounting.
// ---------------------------------------------------------------------------

void RunContext::FreeAll(std::vector<std::pair<DeviceId, BufferId>>* allocs) {
  // Unwind contract: every buffer is best-effort deleted and its ledger
  // charge credited even when the device refuses the delete — after Run()
  // returns, the query holds no charges, whatever faults occurred.
  for (auto it = allocs->rbegin(); it != allocs->rend(); ++it) {
    Status st = hub_.FreeBufferBestEffort(it->first, it->second);
    if (!st.ok()) {
      ADAMANT_LOG(Warning) << "delete_memory failed: " << st.ToString();
    }
  }
  allocs->clear();
}

void RunContext::ReleaseScanLeases() {
  ScanBufferCache* cache = hub_.scan_cache();
  if (cache != nullptr) {
    for (uint64_t token : chunk_lease_tokens_) cache->Release(token);
  }
  chunk_lease_tokens_.clear();
}

void RunContext::ReleaseAll() {
  ClosePipeline();
  ReleaseScanLeases();
  FreeAll(&per_chunk_allocs_);
  FreeAll(&pipeline_allocs_);
  FreeAll(&run_allocs_);
  // Re-entrancy: only reset the devices this run touched; another query's
  // devices are none of our business.
  for (DeviceId id : used_devices_) {
    auto dev = manager_->GetDevice(id);
    if (dev.ok()) (*dev)->SetAsyncMode(false);
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE collection (options_.collect_operator_stats).
// ---------------------------------------------------------------------------

namespace {

/// `op`'s slice on `device`, appended on first use.
obs::OperatorDeviceSlice& SliceOn(obs::OperatorStats& op, int device) {
  for (obs::OperatorDeviceSlice& slice : op.devices) {
    if (slice.device == device) return slice;
  }
  op.devices.emplace_back().device = device;
  return op.devices.back();
}

}  // namespace

Result<int64_t> RunContext::BindingRows(const Binding& binding) {
  if (binding.count == kInvalidBuffer) {
    return static_cast<int64_t>(binding.capacity);
  }
  const auto key = std::make_pair(binding.device, binding.count);
  auto it = analyze_counts_.find(key);
  if (it != analyze_counts_.end()) return it->second;
  int64_t value = 0;
  ADAMANT_RETURN_NOT_OK(hub_.RetrieveData(binding.device, binding.count,
                                          &value, sizeof(int64_t)));
  analyze_counts_[key] = value;
  return value;
}

void RunContext::RecordOperatorSample(const GraphNode& node,
                                      SimulatedDevice* dev, uint64_t rows_in,
                                      uint64_t rows_out, bool counts_rows_out,
                                      double wall_ms) {
  obs::OperatorStats& op = op_stats_[node.id];
  op.node_id = node.id;
  op.rows_in += rows_in;
  ++op.launches;
  op.kernel_ms += wall_ms;
  if (counts_rows_out) {
    op.rows_out += rows_out;
    if (rows_in > 0) {
      op.max_chunk_selectivity = std::max(
          op.max_chunk_selectivity,
          static_cast<double>(rows_out) / static_cast<double>(rows_in));
    }
  }
  if (node.kind == PrimitiveKind::kFused ||
      node.kind == PrimitiveKind::kFusedAgg) {
    op.fused_ms += wall_ms;
  } else {
    const int threads = dev->LaunchThreads(
        options_.kernel_threads, GetSignature(node.kind).kernel_name);
    (threads > 1 ? op.parallel_ms : op.scalar_ms) += wall_ms;
  }
  obs::OperatorDeviceSlice& slice = SliceOn(op, static_cast<int>(node.device));
  slice.rows_in += rows_in;
  if (counts_rows_out) slice.rows_out += rows_out;
  ++slice.launches;
  slice.kernel_ms += wall_ms;
}

void RunContext::MergeOperatorStats(
    const std::map<int, obs::OperatorStats>& other) {
  for (const auto& [node_id, src] : other) {
    obs::OperatorStats& dst = op_stats_[node_id];
    dst.node_id = node_id;
    dst.rows_in += src.rows_in;
    dst.rows_out += src.rows_out;
    dst.max_chunk_selectivity =
        std::max(dst.max_chunk_selectivity, src.max_chunk_selectivity);
    dst.launches += src.launches;
    dst.kernel_ms += src.kernel_ms;
    dst.scalar_ms += src.scalar_ms;
    dst.parallel_ms += src.parallel_ms;
    dst.fused_ms += src.fused_ms;
    dst.bytes_h2d += src.bytes_h2d;
    dst.bytes_d2h += src.bytes_d2h;
    dst.cache_hits += src.cache_hits;
    for (const obs::OperatorDeviceSlice& s : src.devices) {
      obs::OperatorDeviceSlice& slice = SliceOn(dst, s.device);
      slice.rows_in += s.rows_in;
      slice.rows_out += s.rows_out;
      slice.launches += s.launches;
      slice.kernel_ms += s.kernel_ms;
    }
  }
}

void RunContext::FinalizeOperatorStats() {
  // Predicted cost: each node's share of the static graph price of the
  // pipelines this run split, on the node's own device (0 when that device
  // is not plugged).
  const Result<GraphPrice> price =
      PriceGraph(*graph_, pipelines_, options_, manager_);
  // Predicted output cardinality per node, filled in pipeline order so a
  // consumer in a later pipeline sees its producer's estimate.
  std::map<int, double> pred_rows_out;
  for (size_t pi = 0; pi < pipelines_.size(); ++pi) {
    const Pipeline& pipeline = pipelines_[pi];
    const double rows = static_cast<double>(pipeline.input_rows);
    for (int node_id : pipeline.nodes) {
      const GraphNode& node = graph_->node(node_id);
      obs::OperatorStats& op = op_stats_[node_id];
      op.node_id = node_id;
      op.pipeline = static_cast<int>(pi);
      op.label = node.label;
      op.kind = GetSignature(node.kind).kernel_name;
      // Predicted input rows: the primary in-edge producer's estimate, or
      // the pipeline's scan cardinality.
      double pred_in = rows;
      for (int edge_id : graph_->InEdges(node_id)) {
        const GraphEdge& edge = graph_->edges()[static_cast<size_t>(edge_id)];
        if (edge.to_slot != PrimaryInputSlot(node)) continue;
        if (!edge.is_scan()) {
          auto it = pred_rows_out.find(edge.from_node);
          if (it != pred_rows_out.end()) pred_in = it->second;
        }
        break;
      }
      op.predicted_rows_in = pred_in;
      op.selective = GetSignature(node.kind).sized_by_selectivity;
      double pred_out = pred_in;
      if (op.selective) {
        op.predicted_selectivity = node.config.selectivity;
        pred_out = pred_in * node.config.selectivity;
      } else {
        switch (node.kind) {
          case PrimitiveKind::kAggBlock:
          case PrimitiveKind::kFusedAgg:
            pred_out = std::min(pred_in, 1.0);
            break;
          case PrimitiveKind::kSortAgg:
            pred_out = std::min(
                pred_in, static_cast<double>(node.config.num_groups));
            break;
          default:
            break;
        }
      }
      op.predicted_rows_out = pred_out;
      pred_rows_out[node_id] = pred_out;
      if (price.ok()) {
        op.predicted_cost_us =
            price->nodes[static_cast<size_t>(node_id)].cost_us;
      }
      // Feedback key: ties the operator back to the logical construct whose
      // selectivity the planner estimated (see plan/calibration.h). MATERIALIZE
      // carries the *cumulative* step selectivity, so its key is the filter
      // chain it compacts — the slot-1 bitmap producer.
      switch (node.kind) {
        case PrimitiveKind::kFilterPosition:
        case PrimitiveKind::kHashProbe:
        case PrimitiveKind::kFused:
          op.feedback_key = "step:" + node.label;
          break;
        case PrimitiveKind::kMaterialize:
          for (int edge_id : graph_->InEdges(node_id)) {
            const GraphEdge& edge =
                graph_->edges()[static_cast<size_t>(edge_id)];
            if (edge.to_slot != 1 || edge.is_scan()) continue;
            op.feedback_key = "step:" + graph_->node(edge.from_node).label;
            break;
          }
          break;
        default:
          break;
      }
      // Breakers write no per-chunk output count; derive their measured
      // output cardinality from the kind.
      if (GetSignature(node.kind).pipeline_breaker) {
        switch (node.kind) {
          case PrimitiveKind::kAggBlock:
          case PrimitiveKind::kFusedAgg:
            op.rows_out = std::min<uint64_t>(op.rows_in, 1);
            break;
          case PrimitiveKind::kSortAgg:
            op.rows_out = std::min<uint64_t>(
                op.rows_in, static_cast<uint64_t>(node.config.num_groups));
            break;
          default:  // hash_build / hash_agg / prefix_sum: bounded by input
            op.rows_out = op.rows_in;
            break;
        }
        for (obs::OperatorDeviceSlice& slice : op.devices) {
          slice.rows_out = std::min<uint64_t>(slice.rows_in, op.rows_out);
        }
      }
    }
  }
  std::vector<obs::OperatorStats>& ops = exec_.stats.profile.operators;
  ops.clear();
  ops.reserve(op_stats_.size());
  double pred_total = 0;
  double actual_total = 0;
  for (const auto& [node_id, op] : op_stats_) {
    ops.push_back(op);
    pred_total += op.predicted_cost_us;
    actual_total += op.kernel_ms;
  }
  for (obs::OperatorStats& op : ops) {
    if (op.selective && op.rows_in > 0) {
      op.selectivity_qerror =
          obs::QError(op.predicted_selectivity, op.ActualSelectivity());
    }
    if (pred_total > 0 && actual_total > 0 && op.launches > 0) {
      op.cost_qerror = obs::QError(op.predicted_cost_us / pred_total,
                                   op.kernel_ms / actual_total);
    }
  }
}

void RunContext::FinalizeStats() {
  ClosePipeline();
  QueryStats& stats = exec_.stats;
  if (options_.collect_profile) {
    stats.profile.run_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - run_start_)
                               .count();
    if (options_.cancel_token != nullptr &&
        options_.cancel_token->cancelled()) {
      stats.profile.cancelled_cause =
          CancelCauseToString(options_.cancel_token->cause());
    }
  }
  if (options_.collect_operator_stats) FinalizeOperatorStats();
  stats.bytes_h2d += hub_.bytes_host_to_device();
  stats.bytes_d2h += hub_.bytes_device_to_host();
  stats.scan_cache_hits += hub_.scan_cache_hits();
  stats.scan_cache_misses += hub_.scan_cache_misses();
  stats.bytes_h2d_saved += hub_.bytes_h2d_saved();
  // One slot per plugged device so DeviceId indexes stay valid, but only
  // the devices this query used are read — touching another device's live
  // counters would race with concurrently-running queries.
  stats.devices.resize(manager_->num_devices());
  for (size_t i = 0; i < manager_->num_devices(); ++i) {
    stats.devices[i].name =
        manager_->device(static_cast<DeviceId>(i))->name();
  }
  for (DeviceId id : used_devices_) {
    // Guard like ReleaseAll: a failed run may list a device that was never
    // valid (unknown graph annotation), and FinalizeStats runs on every
    // exit path.
    auto dev_or = manager_->GetDevice(id);
    if (!dev_or.ok() || static_cast<size_t>(id) >= stats.devices.size()) {
      continue;
    }
    SimulatedDevice* dev = *dev_or;
    DeviceRunStats& ds = stats.devices[static_cast<size_t>(id)];
    const SimulatedDevice::EngineBusy busy = dev->busy();
    ds.h2d_busy_us = busy.h2d;
    ds.d2h_busy_us = busy.d2h;
    ds.compute_busy_us = busy.compute;
    ds.kernel_body_us = dev->kernel_body_time();
    ds.kernel_body_by_name = dev->kernel_body_by_name();
    ds.transfer_wire_us = dev->transfer_wire_time();
    ds.execute_calls = dev->stats().execute;
    ds.prepare_calls = dev->stats().prepare_memory;
    ds.device_mem_high_water = dev->device_arena().high_water();
    ds.pinned_mem_high_water = dev->pinned_arena().high_water();
    ds.kernel_threads = dev->LaunchThreads(options_.kernel_threads);
    ds.parallel_launches = dev->parallel_launches();
    ds.fused_launches = dev->fused_launches();
    ds.fused_body_us = dev->fused_body_time();
    stats.kernel_body_us += ds.kernel_body_us;
    stats.transfer_wire_us += ds.transfer_wire_us;
    stats.elapsed_us = std::max(stats.elapsed_us, dev->MaxCompletion());
  }
  if (obs::TracingEnabled()) RecordSimulatedTimelines();
}

void RunContext::RecordSimulatedTimelines() {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const obs::TraceRecorder::SimWindow window =
      recorder.ClaimSimulatedWindow(exec_.stats.elapsed_us);
  recorder.SetTrackName(obs::kSimTrackBase, "runs (simulated)");
  recorder.RecordComplete(obs::kSimTrackBase, window.start_us,
                          exec_.stats.elapsed_us,
                          "run:" + std::to_string(window.run));
  for (DeviceId id : used_devices_) {
    auto dev = manager_->GetDevice(id);
    if (dev.ok()) {
      (*dev)->RecordTimelineTrace(obs::SimEngineTrack(static_cast<int>(id)),
                                  window.start_us);
    }
  }
}

}  // namespace adamant::exec
