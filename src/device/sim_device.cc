#include "device/sim_device.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "obs/trace.h"

namespace adamant {

using sim::SimTime;
using sim::TransferDirection;

namespace {

/// A device buffer is host memory here, allocated in PrepareMemory and freed
/// in DeleteMemory, so every query allocates and frees the same tens of MiB.
/// By default glibc hands the top of the heap back to the kernel once more
/// than twice the largest freed mmap'd block (~8 MiB after a 4 MiB hash
/// table) is free there, and the next query faults the same pages in again.
/// Fixing both thresholds at the maxima glibc's own adjustment reaches
/// (32 MiB mmap, 64 MiB trim) keeps the heap from one query to the next.
void KeepQueryBuffersInTheHeap() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
  });
#endif
}

}  // namespace

SimulatedDevice::SimulatedDevice(std::string name, sim::DevicePerfModel model,
                                 SdkFormat native_format,
                                 bool requires_compilation,
                                 std::shared_ptr<SimContext> ctx)
    : name_(std::move(name)),
      model_(std::move(model)),
      native_format_(native_format),
      requires_compilation_(requires_compilation),
      ctx_(std::move(ctx)),
      device_arena_(name_ + ".device_mem", model_.device_memory_bytes),
      pinned_arena_(name_ + ".pinned_mem", model_.pinned_memory_bytes) {
  ADAMANT_CHECK(ctx_ != nullptr);
  KeepQueryBuffersInTheHeap();
}

Status SimulatedDevice::Initialize() {
  std::lock_guard<std::mutex> lock(call_mu_);
  if (initialized_) {
    return Status::AlreadyExists("device " + name_ + " already initialized");
  }
  initialized_ = true;
  host_time_ += model_.host_call_us;
  return Status::OK();
}

Result<SimulatedDevice::BufferRecord*> SimulatedDevice::FindRecord(
    BufferId id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("buffer " + std::to_string(id) + " on " + name_);
  }
  return &it->second;
}

Result<const SimulatedDevice::BufferRecord*> SimulatedDevice::FindRecord(
    BufferId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("buffer " + std::to_string(id) + " on " + name_);
  }
  return &it->second;
}

Result<SimulatedDevice::Resolved> SimulatedDevice::Resolve(BufferId id) {
  ADAMANT_ASSIGN_OR_RETURN(BufferRecord * rec, FindRecord(id));
  BufferRecord* root = rec;
  size_t offset = 0;
  while (root->parent != kInvalidBuffer) {
    offset += root->parent_offset;
    ADAMANT_ASSIGN_OR_RETURN(root, FindRecord(root->parent));
  }
  return Resolved{root, rec, offset};
}

void SimulatedDevice::MarkWrite(const Resolved& r, SimTime end) {
  r.record->ready_at = std::max(r.record->ready_at, end);
  r.root->ready_at = std::max(r.root->ready_at, end);
}

void SimulatedDevice::MarkRead(const Resolved& r, SimTime end) {
  r.record->last_read_end = std::max(r.record->last_read_end, end);
  r.root->last_read_end = std::max(r.root->last_read_end, end);
}

SimTime SimulatedDevice::WriteReadyTime(const Resolved& r) {
  // WAR and WAW hazards: a write must wait until previous readers and
  // writers of this object are done. Alias granularity: only the alias's own
  // history applies, which is what dual-buffer alternation relies on.
  return std::max(r.record->ready_at, r.record->last_read_end);
}

SimTime SimulatedDevice::ReadReadyTime(const Resolved& r) {
  // RAW hazard: reads wait for the latest write of alias or root.
  return std::max(r.record->ready_at, r.root->ready_at);
}

Result<BufferId> SimulatedDevice::PrepareMemory(size_t bytes) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.prepare_memory;
  ADAMANT_RETURN_NOT_OK(
      device_arena_.Allocate(ScaledBytes(bytes)).WithContext(name_));
  BufferId id = next_id_++;
  BufferRecord rec;
  rec.bytes = bytes;
  rec.kind = MemoryKind::kDevice;
  rec.format = native_format_;
  rec.storage.Resize(bytes);
  records_.emplace(id, std::move(rec));
  host_time_ += model_.alloc_us + model_.host_call_us;
  return id;
}

Result<BufferId> SimulatedDevice::AddPinnedMemory(size_t bytes) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.add_pinned_memory;
  ADAMANT_RETURN_NOT_OK(
      pinned_arena_.Allocate(ScaledBytes(bytes)).WithContext(name_));
  BufferId id = next_id_++;
  BufferRecord rec;
  rec.bytes = bytes;
  rec.kind = MemoryKind::kPinnedHost;
  rec.format = native_format_;
  rec.storage.Resize(bytes);
  records_.emplace(id, std::move(rec));
  host_time_ += model_.pinned_alloc_us + model_.host_call_us;
  return id;
}

Status SimulatedDevice::PlaceData(BufferId dst, const void* src, size_t bytes,
                                  size_t dst_offset) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.place_data;
  if (src == nullptr) return Status::InvalidArgument("null source");
  ADAMANT_ASSIGN_OR_RETURN(Resolved r, Resolve(dst));
  if (dst_offset + bytes > r.record->bytes) {
    return Status::InvalidArgument(
        "place_data overflows buffer " + std::to_string(dst) + " (" +
        std::to_string(dst_offset + bytes) + " > " +
        std::to_string(r.record->bytes) + ")");
  }

  const bool pinned = r.record->kind == MemoryKind::kPinnedHost;
  SimTime wire = model_.TransferDuration(Scale(static_cast<double>(bytes)),
                                         TransferDirection::kHostToDevice,
                                         pinned);
  transfer_wire_time_ += wire;
  SimTime duration = model_.transfer.latency_us + wire;
  host_time_ += model_.host_call_us;
  SimTime earliest = std::max(host_time_, WriteReadyTime(r));
  auto entry = transfer_tl_.Schedule(earliest, duration, "h2d");
  MarkWrite(r, entry.end);
  if (!async_mode_) host_time_ = entry.end;

  std::memcpy(r.root->storage.data() + r.offset + dst_offset, src, bytes);
  return Status::OK();
}

Status SimulatedDevice::RetrieveData(BufferId src, void* dst, size_t bytes,
                                     size_t src_offset) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.retrieve_data;
  if (dst == nullptr) return Status::InvalidArgument("null destination");
  ADAMANT_ASSIGN_OR_RETURN(Resolved r, Resolve(src));
  if (src_offset + bytes > r.record->bytes) {
    return Status::InvalidArgument(
        "retrieve_data overflows buffer " + std::to_string(src));
  }

  const bool pinned = r.record->kind == MemoryKind::kPinnedHost;
  SimTime wire = model_.TransferDuration(Scale(static_cast<double>(bytes)),
                                         TransferDirection::kDeviceToHost,
                                         pinned);
  transfer_wire_time_ += wire;
  SimTime duration = model_.transfer.latency_us + wire;
  host_time_ += model_.host_call_us;
  SimTime earliest = std::max(host_time_, ReadReadyTime(r));
  auto entry = d2h_tl_.Schedule(earliest, duration, "d2h");
  MarkRead(r, entry.end);
  // The host consumes the bytes, so retrieval always blocks the host.
  host_time_ = entry.end;

  std::memcpy(dst, r.root->storage.data() + r.offset + src_offset, bytes);
  return Status::OK();
}

Status SimulatedDevice::TransformMemory(BufferId id, SdkFormat target) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.transform_memory;
  ADAMANT_ASSIGN_OR_RETURN(BufferRecord * rec, FindRecord(id));
  // Metadata-only re-interpretation: no bytes move (this is the entire point
  // of the interface — see Fig. 4 and the naive host-roundtrip alternative).
  rec->format = target;
  host_time_ += model_.transform_us + model_.host_call_us;
  return Status::OK();
}

Status SimulatedDevice::DeleteMemory(BufferId id) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.delete_memory;
  ADAMANT_ASSIGN_OR_RETURN(BufferRecord * rec, FindRecord(id));
  if (rec->parent == kInvalidBuffer) {
    // Chunk aliases never charged the arena; owners give their bytes back.
    auto& arena = rec->kind == MemoryKind::kPinnedHost ? pinned_arena_
                                                       : device_arena_;
    arena.Free(ScaledBytes(rec->bytes));
  }
  records_.erase(id);
  host_time_ += model_.free_us + model_.host_call_us;
  return Status::OK();
}

Status SimulatedDevice::PrepareKernel(const std::string& name,
                                      const KernelSource& source) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.prepare_kernel;
  if (!source.fn) {
    return Status::InvalidArgument("kernel '" + name +
                                   "' has no implementation");
  }
  prepared_kernels_[name] = source.fn;
  // Runtime compilation (clBuildProgram) is expensive; ADAMANT pays it once
  // per kernel at initialization time.
  host_time_ += model_.kernel_compile_us + model_.host_call_us;
  return Status::OK();
}

void SimulatedDevice::RegisterPrecompiledKernel(const std::string& name,
                                                HostKernelFn fn) {
  std::lock_guard<std::mutex> lock(call_mu_);
  precompiled_kernels_[name] = std::move(fn);
}

bool SimulatedDevice::HasKernel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  return prepared_kernels_.count(name) > 0 ||
         precompiled_kernels_.count(name) > 0;
}

void SimulatedDevice::SetKernelThreads(
    int own_threads, std::set<std::string, std::less<>> tiled_kernels) {
  std::lock_guard<std::mutex> lock(call_mu_);
  kernel_threads_ = own_threads > 0 ? own_threads : 1;
  tiled_kernels_ = std::move(tiled_kernels);
}

int SimulatedDevice::LaunchThreads(int budget, std::string_view kernel) const {
  if (!kernel.empty() && !KernelTiles(kernel)) return 1;
  return budget > 0 ? budget : kernel_threads_;
}

SimTime SimulatedDevice::KernelBody(std::string_view kernel, double tuples,
                                    double cost_param, int threads) const {
  SimTime body = model_.KernelDuration(kernel, tuples, cost_param);
  // The calibrated rate corresponds to the device's own budget; where that
  // exceeds one thread (CPU drivers), running on another count scales the
  // body by S(own)/S(used). One-thread (GPU) drivers charge the calibrated
  // rate under any budget — their model already is massively parallel.
  if (kernel_threads_ > 1) {
    body *= sim::ParallelKernelSpeedup(kernel_threads_, tuples) /
            sim::ParallelKernelSpeedup(threads, tuples);
  }
  return body;
}

SimulatedDevice::LaunchPrice SimulatedDevice::PriceLaunch(
    std::string_view kernel, double tuples, int budget, int bodies) const {
  LaunchPrice price;
  price.threads = LaunchThreads(budget, kernel);
  price.body_us = bodies * KernelBody(kernel, tuples, /*cost_param=*/1.0,
                                      price.threads);
  price.total_us = model_.kernel_launch_us + price.body_us;
  return price;
}

Result<BufferId> SimulatedDevice::CreateChunk(BufferId parent, size_t bytes,
                                              size_t offset) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.create_chunk;
  ADAMANT_ASSIGN_OR_RETURN(BufferRecord * parent_rec, FindRecord(parent));
  if (offset + bytes > parent_rec->bytes) {
    return Status::InvalidArgument(
        "chunk [" + std::to_string(offset) + ", " +
        std::to_string(offset + bytes) + ") exceeds buffer " +
        std::to_string(parent) + " of " + std::to_string(parent_rec->bytes) +
        " bytes");
  }
  BufferId id = next_id_++;
  BufferRecord rec;
  rec.bytes = bytes;
  rec.kind = parent_rec->kind;
  rec.format = parent_rec->format;
  rec.parent = parent;
  rec.parent_offset = offset;
  rec.ready_at = parent_rec->ready_at;
  rec.last_read_end = parent_rec->last_read_end;
  records_.emplace(id, std::move(rec));
  host_time_ += model_.host_call_us;
  return id;
}

Status SimulatedDevice::Execute(const KernelLaunch& launch) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ++stats_.execute;
  if (!initialized_) {
    return Status::ExecutionError("device " + name_ + " not initialized");
  }

  // Locate the implementation: inline fn wins, then prepared (runtime
  // compiled), then precompiled driver kernels. Drivers with runtime
  // compilation insist the kernel went through prepare_kernel.
  HostKernelFn fn = launch.fn;
  if (!fn) {
    if (auto it = prepared_kernels_.find(launch.kernel_name);
        it != prepared_kernels_.end()) {
      fn = it->second;
    } else if (auto pit = precompiled_kernels_.find(launch.kernel_name);
               pit != precompiled_kernels_.end()) {
      if (requires_compilation_) {
        return Status::ExecutionError("kernel '" + launch.kernel_name +
                                      "' was not prepared on " + name_ +
                                      " (runtime compilation required)");
      }
      fn = pit->second;
    } else {
      return Status::ExecutionError("no kernel '" + launch.kernel_name +
                                    "' on " + name_);
    }
  } else if (requires_compilation_ &&
             prepared_kernels_.find(launch.kernel_name) ==
                 prepared_kernels_.end()) {
    return Status::ExecutionError("kernel '" + launch.kernel_name +
                                  "' was not prepared on " + name_ +
                                  " (runtime compilation required)");
  }

  // The launch's threads (LaunchThreads). Inline fns ignore the run's
  // budget and charge the calibrated rate.
  const int threads =
      launch.fn ? LaunchThreads(0)
                : LaunchThreads(launch.num_threads, launch.kernel_name);

  if (launch.kernel_name == "fused") ++fused_launches_;

  // Resolve buffer arguments and collect dependency times.
  std::vector<void*> pointers(launch.args.size(), nullptr);
  std::vector<size_t> sizes(launch.args.size(), 0);
  std::vector<Resolved> resolved(launch.args.size(),
                                 Resolved{nullptr, nullptr, 0});
  size_t num_buffer_args = 0;
  SimTime deps = 0;
  for (size_t i = 0; i < launch.args.size(); ++i) {
    const KernelArg& arg = launch.args[i];
    if (!arg.is_buffer()) continue;
    ++num_buffer_args;
    ADAMANT_ASSIGN_OR_RETURN(Resolved r, Resolve(arg.buffer));
    resolved[i] = r;
    pointers[i] = r.root->storage.data() + r.offset;
    sizes[i] = r.record->bytes;
    if (arg.reads_buffer()) deps = std::max(deps, ReadReadyTime(r));
    if (arg.writes_buffer()) deps = std::max(deps, WriteReadyTime(r));
  }

  // Host-side issue cost: framework call + explicit per-argument data
  // mapping (clSetKernelArg) — this is what Fig. 10 measures.
  host_time_ += model_.host_call_us +
                model_.per_arg_map_us * static_cast<double>(num_buffer_args);

  double tuples = Scale(static_cast<double>(launch.work_items));
  double cost_param = launch.scale_cost_param ? Scale(launch.cost_param)
                                              : launch.cost_param;
  const SimTime body =
      launch.bodies *
      KernelBody(launch.kernel_name, tuples, cost_param, threads);
  kernel_body_time_ += body;
  kernel_body_by_name_[launch.kernel_name] += body;
  if (launch.kernel_name == "fused") fused_body_time_ += body;
  SimTime duration = model_.kernel_launch_us + body;
  SimTime earliest = std::max(host_time_, deps);
  auto entry = compute_tl_.Schedule(earliest, duration, launch.kernel_name);
  for (size_t i = 0; i < launch.args.size(); ++i) {
    const KernelArg& arg = launch.args[i];
    if (!arg.is_buffer()) continue;
    if (arg.reads_buffer()) MarkRead(resolved[i], entry.end);
    if (arg.writes_buffer()) MarkWrite(resolved[i], entry.end);
  }
  if (!async_mode_) host_time_ = entry.end;

  // Run the actual computation now, in issue order.
  KernelExecContext ctx(std::move(pointers), std::move(sizes), launch.args,
                        launch.work_items);
  ctx.set_parallel_threads(threads);
  ctx.set_cancel(launch.cancel);
  const Status status = fn(&ctx);
  if (ctx.tiled()) ++parallel_launches_;
  return status.WithContext("kernel '" + launch.kernel_name + "' on " + name_);
}

SimTime SimulatedDevice::Synchronize() {
  std::lock_guard<std::mutex> lock(call_mu_);
  host_time_ = MaxCompletionLocked();
  return host_time_;
}

void SimulatedDevice::InjectDelay(SimTime delay_us) {
  if (delay_us == 0) return;
  std::lock_guard<std::mutex> lock(call_mu_);
  auto entry = compute_tl_.Schedule(host_time_, delay_us, "fault.delay");
  host_time_ = std::max(host_time_, entry.end);
}

SimTime SimulatedDevice::MaxCompletion() const {
  std::lock_guard<std::mutex> lock(call_mu_);
  return MaxCompletionLocked();
}

SimTime SimulatedDevice::MaxCompletionLocked() const {
  return std::max({host_time_, transfer_tl_.available_at(),
                   d2h_tl_.available_at(), compute_tl_.available_at()});
}

void SimulatedDevice::ResetTimelines() {
  std::lock_guard<std::mutex> lock(call_mu_);
  transfer_tl_.Reset();
  d2h_tl_.Reset();
  compute_tl_.Reset();
  host_time_ = 0;
  kernel_body_time_ = 0;
  fused_body_time_ = 0;
  kernel_body_by_name_.clear();
  transfer_wire_time_ = 0;
  for (auto& [id, rec] : records_) {
    rec.ready_at = 0;
    rec.last_read_end = 0;
  }
}

SimulatedDevice::EngineBusy SimulatedDevice::busy() const {
  std::lock_guard<std::mutex> lock(call_mu_);
  return {transfer_tl_.busy_time(), d2h_tl_.busy_time(),
          compute_tl_.busy_time()};
}

void SimulatedDevice::Barrier(SimTime at) {
  std::lock_guard<std::mutex> lock(call_mu_);
  for (sim::ResourceTimeline* engine :
       {&transfer_tl_, &d2h_tl_, &compute_tl_}) {
    engine->Schedule(at, 0, "dp-barrier");
  }
}

void SimulatedDevice::SetTimelineTracing(bool enabled) {
  std::lock_guard<std::mutex> lock(call_mu_);
  for (sim::ResourceTimeline* engine :
       {&transfer_tl_, &d2h_tl_, &compute_tl_}) {
    engine->set_tracing(enabled);
  }
}

void SimulatedDevice::RecordTimelineTrace(int first_track,
                                          SimTime offset_us) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const char* const kEngines[] = {"h2d", "d2h", "compute"};
  const sim::ResourceTimeline* const engines[] = {&transfer_tl_, &d2h_tl_,
                                                  &compute_tl_};
  for (int e = 0; e < 3; ++e) {
    recorder.SetTrackName(first_track + e,
                          name_ + " " + kEngines[e] + " (simulated)");
    for (const sim::TimelineEntry& entry : engines[e]->trace()) {
      recorder.RecordComplete(first_track + e, offset_us + entry.start,
                              entry.end - entry.start, entry.label);
    }
  }
}

Result<void*> SimulatedDevice::DebugBufferPtr(BufferId id) {
  std::lock_guard<std::mutex> lock(call_mu_);
  ADAMANT_ASSIGN_OR_RETURN(Resolved r, Resolve(id));
  return static_cast<void*>(r.root->storage.data() + r.offset);
}

Result<size_t> SimulatedDevice::DebugBufferSize(BufferId id) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  ADAMANT_ASSIGN_OR_RETURN(const BufferRecord* rec, FindRecord(id));
  return rec->bytes;
}

Result<SdkFormat> SimulatedDevice::BufferFormat(BufferId id) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  ADAMANT_ASSIGN_OR_RETURN(const BufferRecord* rec, FindRecord(id));
  return rec->format;
}

Result<size_t> SimulatedDevice::BufferBytes(BufferId id) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  ADAMANT_ASSIGN_OR_RETURN(const BufferRecord* rec, FindRecord(id));
  return rec->bytes;
}

Result<MemoryKind> SimulatedDevice::BufferMemoryKind(BufferId id) const {
  std::lock_guard<std::mutex> lock(call_mu_);
  ADAMANT_ASSIGN_OR_RETURN(const BufferRecord* rec, FindRecord(id));
  return rec->kind;
}

}  // namespace adamant
