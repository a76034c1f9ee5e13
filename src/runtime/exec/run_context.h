#ifndef ADAMANT_RUNTIME_EXEC_RUN_CONTEXT_H_
#define ADAMANT_RUNTIME_EXEC_RUN_CONTEXT_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/result.h"
#include "device/device_manager.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"
#include "runtime/transfer_hub.h"

namespace adamant::exec {

/// A value produced on a device, visible to downstream primitives.
struct Binding {
  BufferId data = kInvalidBuffer;
  BufferId count = kInvalidBuffer;  // device-resident int64[1], or invalid
  size_t capacity = 0;              // elements
  ElementType elem_type = ElementType::kInt32;
  DeviceId device = 0;
  size_t num_slots = 0;  // hash tables
};

/// Persisted pipeline-breaker output (hash table / accumulator), resident in
/// device memory across chunks and pipelines.
struct Persist {
  BufferId buffer = kInvalidBuffer;
  size_t bytes = 0;
  DeviceId device = 0;
  size_t num_slots = 0;
  size_t capacity = 0;  // elements, for array-shaped persists
  bool initialized = false;  // accumulator identity written (agg_block)
};

/// The chunk range of one pipeline: global chunk indices map to (base_row,
/// rows) windows over the pipeline's input. An empty input still yields one
/// empty chunk, so breaker kernels run once and write their identity.
/// Drivers iterate a contiguous sub-range of [0, total()); the device-
/// parallel model hands each device a disjoint sub-range.
class ChunkSource {
 public:
  ChunkSource(size_t input_rows, size_t chunk_capacity)
      : rows_(input_rows), cap_(chunk_capacity) {}

  size_t total() const {
    return cap_ == 0 ? 1 : bit_util::CeilDiv(rows_, cap_);
  }
  size_t base(size_t chunk) const { return chunk * cap_; }
  size_t rows(size_t chunk) const {
    const size_t b = base(chunk);
    return b >= rows_ ? 0 : std::min(cap_, rows_ - b);
  }

 private:
  size_t rows_;
  size_t cap_;
};

/// Per-run execution state shared by every ModelDriver: pipelines, edge
/// bindings, breaker persists, staging plans, allocation ledgers, and the
/// data transfer hub. A driver composes the public phase operations
/// (Prepare / BeginPipeline / staging / RunChunks / CompleteRun) into its
/// execution model; QueryExecutor::Run owns cleanup (ReleaseAll) and stats
/// finalization.
class RunContext {
 public:
  RunContext(DeviceManager* manager, PrimitiveGraph* graph,
             const ExecutionOptions& options);

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Validates the graph, splits its pipelines and resets chunk progress,
  /// once per context. Prepare calls it; the device-parallel driver calls
  /// it first to price its split over the pipelines it will run.
  Status Plan();

  /// Plan(), then readies the run's devices (state reset when the options
  /// ask for it, async mode per the model). `device_override` names the
  /// devices the run will touch when they cannot be derived from the
  /// graph's node annotations — the device-parallel driver passes its
  /// device set so all partition devices are reset and snapshotted.
  Status Prepare(const std::vector<DeviceId>& device_override = {});

  // --- Driver-facing phase operations ---

  /// Chunk capacity (elements) for one pipeline under this run's model.
  size_t ChunkCapacity(const Pipeline& pipeline) const;

  /// Per-pipeline setup: model restriction checks (a global breaker cannot
  /// run chunked), breaker persist allocation, staging-state reset.
  Status BeginPipeline(const Pipeline& pipeline, size_t total_chunks);

  /// Stage phase (Algorithm 3): dual pinned input buffers per scan column
  /// plus all intermediate buffers, allocated once for the pipeline.
  Status StageAllocations(const Pipeline& pipeline, size_t cap);

  /// Bounded transfer lookahead (Algorithm 2 with a staging ring): the WAR
  /// hazard on a ring slot keeps the transfer thread at most
  /// `pipeline_depth` chunks ahead of execution.
  Status AllocateRing(const Pipeline& pipeline, size_t cap);

  /// Copy/compute loop over global chunk indices [chunk_begin, chunk_end):
  /// place scan chunks, execute every node, advance progress, release
  /// per-chunk allocations. `chunk_end` is clamped to the pipeline's total.
  Status RunChunks(const Pipeline& pipeline, size_t chunk_begin,
                   size_t chunk_end, size_t cap);

  /// Synchronizes the devices of one pipeline's nodes (the async models'
  /// barrier at each pipeline breaker, Algorithm 2).
  Status SyncPipelineDevices(const Pipeline& pipeline);

  /// Result delivery: terminal breaker outputs back to the host, then a
  /// final synchronize of every used device.
  Status CompleteRun();

  /// The run's cancellation state: OK without a token (or while untripped),
  /// otherwise the token's DeadlineExceeded/Cancelled status. Drivers and
  /// phase operations poll this at pipeline and chunk boundaries; a non-OK
  /// return unwinds through ReleaseAll like any other error.
  Status CheckCancel() const {
    return options_.cancel_token == nullptr ? Status::OK()
                                            : options_.cancel_token->Check();
  }

  // --- Device-parallel support (partition merge at the task layer) ---

  /// The persist backing a breaker node, or nullptr if none was allocated.
  const Persist* FindPersist(int node_id) const;
  /// Reads a breaker's device-resident persist back to the host.
  Result<std::vector<uint8_t>> ReadPersistBytes(int node_id);
  /// Overwrites a breaker's persist with merged host bytes and marks it
  /// initialized, so later pipelines on this context consume merged state.
  Status PlacePersistBytes(int node_id, const void* data, size_t bytes);
  /// Publishes every breaker persist of `pipeline` on its outgoing edges —
  /// what ExecuteNode does implicitly, made explicit for devices that ran
  /// zero chunks of the producing pipeline but consume the merged result.
  Status BindPersistOutputs(const Pipeline& pipeline);

  // --- EXPLAIN ANALYZE (options_.collect_operator_stats) ---

  /// This run's raw per-operator measurements, keyed by node id. Labels,
  /// predictions and breaker output counts are stamped by FinalizeStats,
  /// which exports the finished tree into QueryStats::profile.operators.
  const std::map<int, obs::OperatorStats>& operator_stats() const {
    return op_stats_;
  }
  /// Folds a partition sub-run's operator stats into this context. The
  /// device-parallel driver's sub-graphs are clones with identical node
  /// ids, so entries merge by id (sums; max for per-chunk selectivity).
  void MergeOperatorStats(const std::map<int, obs::OperatorStats>& other);

  // --- Cleanup and accounting (QueryExecutor::Run's business) ---

  /// Delete phase / error cleanup: scan leases, per-chunk and per-run
  /// allocations, async mode off. Safe to call on every path.
  void ReleaseAll();

  /// Folds hub counters and per-device timeline/footprint snapshots into
  /// the execution's QueryStats. Counters are added, not assigned, so a
  /// composite driver may pre-accumulate sub-run statistics.
  void FinalizeStats();

  // --- Accessors ---

  const std::vector<Pipeline>& pipelines() const { return pipelines_; }
  const ExecutionOptions& options() const { return options_; }
  PrimitiveGraph* graph() { return graph_; }
  DeviceManager* manager() { return manager_; }
  const DataTransferHub& hub() const { return hub_; }
  bool async_mode() const { return async_; }
  QueryExecution& exec() { return exec_; }
  Result<QueryExecution> TakeExecution() { return std::move(exec_); }

 private:
  Status PlaceScanChunk(int edge_id, size_t chunk, size_t base_row, size_t n);
  Result<Binding> InputBinding(const GraphEdge& edge, DeviceId device);
  size_t BindingBytes(const GraphEdge& edge, const Binding& binding) const;
  Result<BufferId> OutputBuffer(const GraphNode& node, int slot, size_t bytes,
                                DataSemantic semantic);
  size_t StagedInputCapacity(const GraphNode& node, size_t cap,
                             std::map<std::pair<int, int>, size_t>* caps) const;
  static int PrimaryInputSlot(const GraphNode& node);
  Status ExecuteNode(int node_id, size_t base_row, size_t n);
  /// FUSED / FUSED_AGG inputs and outputs: variable input count, recipe
  /// interpreter kernel.
  Status ExecuteFusedNode(const GraphNode& node, SimulatedDevice* dev,
                          size_t base_row, size_t n);
  /// The launch tail every primitive shares: stamps the run's variant,
  /// threads and cancel token, counts and traces the launch (`kernel:` or
  /// `fused:` span), times it and samples its rows for EXPLAIN ANALYZE
  /// (`primary_in` holds the input rows, null = the chunk's `n`), then
  /// publishes the outputs on the outgoing edges and streams a terminal
  /// non-breaker's output back.
  Status Launch(const GraphNode& node, SimulatedDevice* dev,
                KernelLaunch launch, const Binding* primary_in,
                const Binding& out0, const Binding* out1, size_t base_row,
                size_t n);
  Status AllocatePersist(const GraphNode& node, size_t input_rows);
  Status RetrieveStreaming(const GraphNode& node, SimulatedDevice* dev,
                           const Binding& out0, const Binding* out1,
                           size_t base_row, size_t n);
  Status RetrieveBreaker(const GraphNode& node);
  void FreeAll(std::vector<std::pair<DeviceId, BufferId>>* allocs);
  void ReleaseScanLeases();

  /// Valid rows behind a binding: its count buffer's value (read once per
  /// chunk via analyze_counts_), or its capacity when no count exists.
  /// Reading a count books simulated D2H time but never touches results.
  Result<int64_t> BindingRows(const Binding& binding);
  /// Accumulates one chunk's execution of `node` into op_stats_.
  /// `counts_rows_out` is false for pipeline breakers, whose output
  /// cardinality is derived from their kind at finalize time.
  void RecordOperatorSample(const GraphNode& node, SimulatedDevice* dev,
                            uint64_t rows_in, uint64_t rows_out,
                            bool counts_rows_out, double wall_ms);
  /// Stamps labels/kinds/pipeline indexes, predicted rows/selectivity,
  /// predicted cost (each node's share of PriceGraph over pipelines_) and
  /// breaker output counts onto op_stats_, walking the lowered plan
  /// node-for-node.
  void FinalizeOperatorStats();

  /// The track a pipeline's events record on: its first node's device.
  int PipelineTrack(const Pipeline& pipeline) const;
  /// Traced exclusive-lease runs: records the used devices' engine
  /// bookings on the simulated-clock tracks, in a window of their own
  /// after every run traced before.
  void RecordSimulatedTimelines();
  /// Closes the open pipeline trace span and, when profiling, folds the
  /// pipeline's wall time / chunk count / per-device busy deltas into the
  /// profile. Called from BeginPipeline (previous pipeline), ReleaseAll,
  /// and FinalizeStats; idempotent.
  void ClosePipeline();

  DeviceManager* manager_;
  PrimitiveGraph* graph_;
  ExecutionOptions options_;
  const bool oaat_;
  const bool staged_;
  const bool async_;
  DataTransferHub hub_;

  std::vector<Pipeline> pipelines_;
  bool planned_ = false;
  std::map<int, Binding> edge_bindings_;
  std::map<int, Persist> persists_;
  std::map<std::pair<int, DeviceId>, BufferId> moved_persists_;
  std::map<int, std::array<BufferId, 2>> staged_scan_bufs_;
  std::map<int, std::vector<BufferId>> ring_bufs_;
  std::map<std::pair<const Column*, DeviceId>, Binding> chunk_scan_cache_;
  std::map<std::pair<int, int>, BufferId> staged_outputs_;
  std::vector<std::pair<DeviceId, BufferId>> per_chunk_allocs_;
  /// Pipeline-scoped transients (ring slots, staged scan buffers, staged
  /// intermediate outputs): freed when the next pipeline begins, so the
  /// per-device peak is persists + the worst single pipeline — the bound
  /// EstimateDeviceMemoryBytes computes.
  std::vector<std::pair<DeviceId, BufferId>> pipeline_allocs_;
  std::vector<std::pair<DeviceId, BufferId>> run_allocs_;
  std::vector<uint64_t> chunk_lease_tokens_;
  std::vector<DeviceId> used_devices_;
  QueryExecution exec_;

  // --- Observability (obs/): pipeline trace span + profile collection ---
  obs::TraceSpan pipeline_span_;
  int cur_pipeline_index_ = -1;
  size_t pipeline_chunk_start_ = 0;
  std::chrono::steady_clock::time_point run_start_;
  std::chrono::steady_clock::time_point pipeline_start_;
  std::map<DeviceId, SimulatedDevice::EngineBusy> pipeline_busy_snapshot_;

  // --- EXPLAIN ANALYZE state (options_.collect_operator_stats) ---
  std::map<int, obs::OperatorStats> op_stats_;
  /// Per-chunk cache of count-buffer reads, keyed per device (BufferIds are
  /// device-local), so each count crosses the bus at most once per chunk.
  std::map<std::pair<DeviceId, BufferId>, int64_t> analyze_counts_;
};

}  // namespace adamant::exec

#endif  // ADAMANT_RUNTIME_EXEC_RUN_CONTEXT_H_
