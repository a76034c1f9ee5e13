#ifndef ADAMANT_DEVICE_SIM_DEVICE_H_
#define ADAMANT_DEVICE_SIM_DEVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "device/device.h"
#include "device/sim_context.h"
#include "sim/memory_arena.h"
#include "sim/perf_model.h"
#include "sim/timeline.h"

namespace adamant {

/// Per-interface call counters, used by tests to verify that execution
/// models drive devices exclusively through the pluggable interfaces.
struct DeviceCallStats {
  size_t place_data = 0;
  size_t retrieve_data = 0;
  size_t prepare_memory = 0;
  size_t add_pinned_memory = 0;
  size_t transform_memory = 0;
  size_t delete_memory = 0;
  size_t prepare_kernel = 0;
  size_t create_chunk = 0;
  size_t execute = 0;
};

/// Simulated co-processor: the behavioural side of every interface call runs
/// for real against host-backed buffers (so query results are exact), while
/// the timing side books operations onto per-resource timelines using the
/// driver's calibrated performance model.
///
/// Memory: PrepareMemory and AddPinnedMemory hand out uninitialized host
/// storage, as cudaMalloc does; the runtime must write every byte it reads.
/// Storage of kMmapThresholdBytes or more outlives DeleteMemory as a spare
/// that the device's next allocation it fits reuses (large_blocks()).
/// Neither changes what the arenas charge or what the simulated clock books.
///
/// Thread safety: every interface call and simulation-control call locks a
/// per-device mutex, so several threads may call one device. The
/// stats/timeline accessors are unsynchronized: they are read by the run
/// that owns the device (the service leases each device to one query at a
/// time), so per-query simulated stats stay exact.
///
/// Concurrency model: the device has a transfer engine and a compute engine
/// (two ResourceTimelines) plus a host cursor (`host_time_`). In synchronous
/// mode (default) every call blocks the host until its operation completes —
/// this is the paper's naive chunked execution. In asynchronous mode calls
/// only advance the host cursor by their issue cost, and operations start as
/// soon as their engine is free and their data dependencies (buffer
/// ready/last-read times) allow — this models the copy/compute overlap of
/// the pipelined and 4-phase execution models. Actual computation always
/// happens at call time in program order, so results are independent of the
/// simulated schedule.
class SimulatedDevice : public Device {
 public:
  SimulatedDevice(std::string name, sim::DevicePerfModel model,
                  SdkFormat native_format, bool requires_compilation,
                  std::shared_ptr<SimContext> ctx);

  // --- Device interface (the ten pluggable functions) ---
  const std::string& name() const override { return name_; }
  /// Renames the device. Names must stay unique within a DeviceManager;
  /// used when plugging several instances of one driver (serving).
  void set_name(std::string name) { name_ = std::move(name); }
  Status Initialize() override;
  Result<BufferId> PrepareMemory(size_t bytes) override;
  Result<BufferId> AddPinnedMemory(size_t bytes) override;
  Status PlaceData(BufferId dst, const void* src, size_t bytes,
                   size_t dst_offset) override;
  Status RetrieveData(BufferId src, void* dst, size_t bytes,
                      size_t src_offset) override;
  Status TransformMemory(BufferId id, SdkFormat target) override;
  Status DeleteMemory(BufferId id) override;
  Status PrepareKernel(const std::string& name,
                       const KernelSource& source) override;
  Result<BufferId> CreateChunk(BufferId parent, size_t bytes,
                               size_t offset) override;
  Status Execute(const KernelLaunch& launch) override;

  /// glibc serves an allocation of this size or more with mmap and unmaps
  /// it on free (the first device built fixes glibc's threshold at this
  /// value), so the device keeps such blocks instead: a spare of capacity c
  /// serves a request of b bytes when b <= c <= 2b. Smaller blocks go back
  /// to glibc's heap, which keeps them between queries.
  static constexpr size_t kMmapThresholdBytes = size_t{32} << 20;

  /// Test seam, process-wide: while on, every block PrepareMemory and
  /// AddPinnedMemory hand out, fresh or recycled, is filled with
  /// kPoisonByte, so a read of memory the runtime never wrote cannot pass
  /// for a zero. On by default in builds without NDEBUG.
  static constexpr uint8_t kPoisonByte = 0xA5;
  static void SetPoisonFill(bool on);
  static bool poison_fill();

  /// Host storage in blocks of kMmapThresholdBytes or more: what live
  /// buffers own, what the device keeps as spares, and the most ever live
  /// at once. live + spare never exceeds live_high_water: a fresh block
  /// that no spare serves first frees the oldest spares past that bound.
  struct LargeBlocks {
    size_t live = 0;
    size_t spare = 0;
    size_t live_high_water = 0;
  };
  LargeBlocks large_blocks() const;

  // --- Driver properties ---
  SdkFormat native_format() const { return native_format_; }
  bool requires_compilation() const { return requires_compilation_; }
  const sim::DevicePerfModel& perf_model() const { return model_; }

  /// Registers a kernel that ships precompiled with the driver (CUDA
  /// fatbins, OpenMP functions); usable by Execute without PrepareKernel.
  void RegisterPrecompiledKernel(const std::string& name, HostKernelFn fn);
  bool HasKernel(const std::string& name) const;

  /// Sets the device's own thread budget and the kernels that tile (set-up
  /// state, before the first launch). The driver's calibrated kernel rates
  /// correspond to its own budget: where that exceeds one thread, Execute
  /// charges KernelDuration scaled by S(own)/S(used), so one thread on a
  /// CPU driver runs slower. A device that owns one thread (GPU drivers)
  /// charges the calibrated rate under any budget; its model already is
  /// massively parallel, and the budget only changes how many host threads
  /// run the kernel.
  void SetKernelThreads(int own_threads,
                        std::set<std::string, std::less<>> tiled_kernels);
  /// The device's own thread budget: what a run asking for 0 threads gets.
  int kernel_threads() const { return kernel_threads_; }
  /// True when `name` splits a launch across its thread budget; the other
  /// kernels run on one thread (LaunchThreads).
  bool KernelTiles(std::string_view name) const {
    return tiled_kernels_.find(name) != tiled_kernels_.end();
  }

  // --- Kernel pricing: the one cost model of a launch. Execute charges
  //     exactly this; admission, the split, EXPLAIN and the fusion gate
  //     predict with it (exec::PriceGraph). None of these wait for a
  //     running Execute; the thread budget is set-up state, like the
  //     accessors above. ---

  /// Threads a launch of `kernel` runs on when the run asks for `budget`
  /// (ExecutionOptions::kernel_threads): 0 takes the device's own budget,
  /// and a kernel that does not tile runs on one thread. Without a kernel
  /// name, the budget the device's tiling kernels run under.
  int LaunchThreads(int budget, std::string_view kernel = {}) const;
  /// Static price of one launch of `kernel` over `tuples` (already
  /// data-scaled) tuples with cost_param pinned at 1, run on the threads
  /// LaunchThreads picks: the body Execute books into kernel_body_time()
  /// (`bodies` single-kernel bodies, KernelLaunch::bodies), plus the SDK's
  /// per-launch overhead.
  struct LaunchPrice {
    int threads = 1;
    sim::SimTime body_us = 0;
    sim::SimTime total_us = 0;
  };
  LaunchPrice PriceLaunch(std::string_view kernel, double tuples, int budget,
                          int bodies = 1) const;
  /// Number of Execute calls whose kernel ran two or more tiles on the
  /// worker pool.
  size_t parallel_launches() const { return parallel_launches_; }
  /// Number of Execute calls that ran the fused composite kernel.
  size_t fused_launches() const { return fused_launches_; }

  // --- Simulation control (used by the runtime layer, not part of the
  //     paper's device interface) ---
  /// Async = calls enqueue instead of blocking the host (CUDA streams /
  /// transfer-thread semantics of Algorithms 2 and 3).
  void SetAsyncMode(bool async) { async_mode_ = async; }
  bool async_mode() const { return async_mode_; }

  /// Blocks the host until all engines drain; returns the new host time.
  sim::SimTime Synchronize();

  /// Books `delay_us` of extra busy time on the compute engine and advances
  /// the host cursor past it, under the call mutex. Used by the fault
  /// injector to model latency spikes (a stalled DMA, a driver hiccup)
  /// without touching the interface functions themselves.
  void InjectDelay(sim::SimTime delay_us);

  /// Latest completion across host, transfer and compute.
  sim::SimTime MaxCompletion() const;

  /// Clears all simulated time (buffers survive, their timestamps reset).
  void ResetTimelines();

  /// Busy time booked on each engine since the last ResetTimelines.
  struct EngineBusy {
    sim::SimTime h2d = 0;
    sim::SimTime d2h = 0;
    sim::SimTime compute = 0;
    sim::SimTime total() const { return h2d + d2h + compute; }
  };
  EngineBusy busy() const;

  /// Holds every engine until `at`: a zero-length booking on each, so no
  /// later operation starts earlier (the device-parallel merge barrier).
  void Barrier(sim::SimTime at);

  /// While on, every engine keeps its bookings until the next
  /// ResetTimelines, for RecordTimelineTrace.
  void SetTimelineTracing(bool enabled);
  /// Records the kept bookings as complete events on the trace recorder:
  /// the h2d, d2h and compute engines on tracks `first_track` + 0, 1, 2,
  /// named after the device, every timestamp shifted by `offset_us`.
  void RecordTimelineTrace(int first_track, sim::SimTime offset_us) const;

  /// Read-only views of the H2D copy and compute engines. H2D and D2H run
  /// on separate copy engines (as on discrete GPUs), so result readbacks do
  /// not serialize against the input chunk stream.
  const sim::ResourceTimeline& transfer_timeline() const {
    return transfer_tl_;
  }
  const sim::ResourceTimeline& compute_timeline() const { return compute_tl_; }
  sim::SimTime host_time() const { return host_time_; }
  /// Sum of pure kernel-body time (launch/mapping overheads excluded) —
  /// the "sum of processing time of the individual primitives" of Fig. 10.
  sim::SimTime kernel_body_time() const { return kernel_body_time_; }
  /// Kernel-body time split by kernel name (per-primitive profile of a run).
  const std::map<std::string, sim::SimTime>& kernel_body_by_name() const {
    return kernel_body_by_name_;
  }
  /// Share of kernel_body_time() spent inside fused composite kernels.
  sim::SimTime fused_body_time() const { return fused_body_time_; }
  /// Sum of pure wire time across transfers.
  sim::SimTime transfer_wire_time() const { return transfer_wire_time_; }

  sim::MemoryArena& device_arena() { return device_arena_; }
  sim::MemoryArena& pinned_arena() { return pinned_arena_; }
  const DeviceCallStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = DeviceCallStats{};
    parallel_launches_ = 0;
    fused_launches_ = 0;
  }

  /// Direct access to a buffer's backing bytes — for tests only; the
  /// runtime always goes through PlaceData/RetrieveData.
  Result<void*> DebugBufferPtr(BufferId id);
  Result<size_t> DebugBufferSize(BufferId id) const;
  Result<SdkFormat> BufferFormat(BufferId id) const;
  /// Buffer metadata used by the transfer hub's memory accounting.
  Result<size_t> BufferBytes(BufferId id) const;
  Result<MemoryKind> BufferMemoryKind(BufferId id) const;

 private:
  struct BufferRecord {
    size_t bytes = 0;
    MemoryKind kind = MemoryKind::kDevice;
    SdkFormat format = SdkFormat::kRaw;
    // Owning, unless this is a chunk alias. A recycled block's capacity
    // may exceed `bytes`; only `bytes` of it belong to the buffer.
    AlignedBuffer storage;
    BufferId parent = kInvalidBuffer;
    size_t parent_offset = 0;        // byte offset into the root buffer
    sim::SimTime ready_at = 0;       // completion of the last write
    sim::SimTime last_read_end = 0;  // completion of the last read
  };

  Result<BufferRecord*> FindRecord(BufferId id);
  Result<const BufferRecord*> FindRecord(BufferId id) const;
  /// Root record + absolute byte offset for (possibly chained) aliases.
  struct Resolved {
    BufferRecord* root;
    BufferRecord* record;
    size_t offset;
  };
  Result<Resolved> Resolve(BufferId id);

  double Scale(double v) const { return v * ctx_->data_scale; }
  size_t ScaledBytes(size_t bytes) const {
    return static_cast<size_t>(static_cast<double>(bytes) * ctx_->data_scale);
  }

  /// Marks a write completing at `end` on (alias, root).
  static void MarkWrite(const Resolved& r, sim::SimTime end);
  /// Marks a read completing at `end`.
  static void MarkRead(const Resolved& r, sim::SimTime end);
  /// Earliest start honouring WAR/WAW on (alias, root).
  static sim::SimTime WriteReadyTime(const Resolved& r);
  static sim::SimTime ReadReadyTime(const Resolved& r);

  /// Storage for a new buffer of `bytes`: the smallest spare that serves
  /// it, else a fresh block. Unwritten, or poisoned (SetPoisonFill).
  AlignedBuffer TakeStorage(size_t bytes);
  /// Takes a deleted buffer's storage: blocks of kMmapThresholdBytes or
  /// more become spares, smaller ones are freed.
  void ReturnStorage(AlignedBuffer storage);

  /// Completion time without taking call_mu_ (callers hold the lock).
  sim::SimTime MaxCompletionLocked() const;
  /// Kernel-body time of one launch run on `threads` threads.
  sim::SimTime KernelBody(std::string_view kernel, double tuples,
                          double cost_param, int threads) const;

  std::string name_;
  sim::DevicePerfModel model_;
  SdkFormat native_format_;
  bool requires_compilation_;
  std::shared_ptr<SimContext> ctx_;

  /// Serializes interface calls so concurrent queries can share the device.
  mutable std::mutex call_mu_;

  std::unordered_map<BufferId, BufferRecord> records_;
  BufferId next_id_ = 1;
  /// Storage of deleted buffers kept for reuse, oldest first; every block
  /// holds at least kMmapThresholdBytes.
  std::vector<AlignedBuffer> spares_;
  LargeBlocks large_blocks_;

  std::map<std::string, HostKernelFn, std::less<>> prepared_kernels_;
  std::map<std::string, HostKernelFn, std::less<>> precompiled_kernels_;
  /// The device's own thread budget (a deterministic set-up constant,
  /// never hardware_concurrency: simulated time must not depend on the host
  /// machine).
  int kernel_threads_ = 1;
  std::set<std::string, std::less<>> tiled_kernels_;
  size_t parallel_launches_ = 0;
  size_t fused_launches_ = 0;

  sim::MemoryArena device_arena_;
  sim::MemoryArena pinned_arena_;
  sim::ResourceTimeline transfer_tl_;  // H2D copy engine
  sim::ResourceTimeline d2h_tl_;       // D2H copy engine
  sim::ResourceTimeline compute_tl_;
  sim::SimTime host_time_ = 0;
  // Atomic so queries sharing the device may toggle it without a data race
  // (each Execute/Place call reads it under call_mu_).
  std::atomic<bool> async_mode_{false};
  bool initialized_ = false;

  sim::SimTime kernel_body_time_ = 0;
  sim::SimTime fused_body_time_ = 0;
  std::map<std::string, sim::SimTime> kernel_body_by_name_;
  sim::SimTime transfer_wire_time_ = 0;
  DeviceCallStats stats_;
};

}  // namespace adamant

#endif  // ADAMANT_DEVICE_SIM_DEVICE_H_
