#include "runtime/transfer_hub.h"

#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "task/hash_table.h"
#include "task/kernels.h"

namespace adamant {

namespace {

// Process-wide transfer/cache counters (the hub has no service attached to
// own per-instance metrics). Pointers are stable for the process lifetime.
obs::Counter* H2DBytesCounter() {
  static obs::Counter* counter =
      obs::GlobalMetrics().GetCounter("adamant_bytes_h2d_total");
  return counter;
}
obs::Counter* D2HBytesCounter() {
  static obs::Counter* counter =
      obs::GlobalMetrics().GetCounter("adamant_bytes_d2h_total");
  return counter;
}
obs::Counter* CacheHitCounter() {
  static obs::Counter* counter =
      obs::GlobalMetrics().GetCounter("adamant_scan_cache_hits_total");
  return counter;
}
obs::Counter* CacheMissCounter() {
  static obs::Counter* counter =
      obs::GlobalMetrics().GetCounter("adamant_scan_cache_misses_total");
  return counter;
}

std::string BytesArgs(size_t bytes) {
  return "{\"bytes\":" + std::to_string(bytes) + "}";
}

}  // namespace

Result<BufferId> DataTransferHub::PrepareDeviceMemory(SimulatedDevice* dev,
                                                      DeviceId device,
                                                      size_t bytes) {
  Result<BufferId> buf = dev->PrepareMemory(bytes);
  if (!buf.ok() && buf.status().IsOutOfMemory() && scan_cache_ != nullptr &&
      scan_cache_->EvictUnpinned(device, bytes)) {
    buf = dev->PrepareMemory(bytes);
  }
  return TagResult(std::move(buf), device);
}

Result<BufferId> DataTransferHub::LoadData(DeviceId device, const void* src,
                                           size_t bytes) {
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_ASSIGN_OR_RETURN(BufferId id, PrepareDeviceMemory(dev, device, bytes));
  ChargeAllocate(device, bytes);
  obs::TraceSpan span;
  if (obs::TracingEnabled()) {
    span.Start(static_cast<int>(device), "h2d");
    span.set_args(BytesArgs(bytes));
  }
  Status st = dev->PlaceData(id, src, bytes, 0);
  if (!st.ok()) {
    (void)dev->DeleteMemory(id);
    ChargeFree(device, bytes);
    return st.WithDevice(device);
  }
  bytes_h2d_ += bytes;
  H2DBytesCounter()->Add(static_cast<double>(bytes));
  return id;
}

Result<ScanBufferCache::Lease> DataTransferHub::LoadColumnChunk(
    DeviceId device, const ColumnPtr& column, size_t base_row, size_t count,
    size_t elem_size) {
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  const size_t bytes = count * elem_size;
  const uint8_t* src = column->raw_data() + base_row * elem_size;

  if (scan_cache_ != nullptr) {
    ADAMANT_ASSIGN_OR_RETURN(
        ScanBufferCache::Lease lease,
        scan_cache_->Acquire(device, column, base_row, count, bytes));
    if (lease.cached) {
      if (lease.hit) {
        ++scan_cache_hits_;
        bytes_h2d_saved_ += bytes;
        CacheHitCounter()->Increment();
        obs::TraceInstant(static_cast<int>(device), "scan_cache_hit",
                          BytesArgs(bytes));
        return lease;
      }
      ++scan_cache_misses_;
      CacheMissCounter()->Increment();
      Status st = PlaceChunk(device, lease.buffer, src, bytes);
      if (!st.ok()) {
        scan_cache_->Invalidate(lease.token);
        return st;
      }
      return lease;
    }
    // The cache declined (budget pressure); fall through to a transient
    // buffer, still counted as a miss for hit-rate purposes.
    ++scan_cache_misses_;
    CacheMissCounter()->Increment();
  }

  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_ASSIGN_OR_RETURN(BufferId buf,
                           PrepareDeviceMemory(dev, device, bytes));
  ChargeAllocate(device, bytes);
  Status st = PlaceChunk(device, buf, src, bytes);
  if (!st.ok()) {
    (void)dev->DeleteMemory(buf);
    ChargeFree(device, bytes);
    return st;
  }
  ScanBufferCache::Lease lease;
  lease.buffer = buf;
  return lease;
}

Status DataTransferHub::PlaceChunk(DeviceId device, BufferId dst,
                                   const void* src, size_t bytes,
                                   size_t dst_offset) {
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  obs::TraceSpan span;
  if (obs::TracingEnabled()) {
    span.Start(static_cast<int>(device), "h2d");
    span.set_args(BytesArgs(bytes));
  }
  ADAMANT_RETURN_NOT_OK(
      dev->PlaceData(dst, src, bytes, dst_offset).WithDevice(device));
  bytes_h2d_ += bytes;
  H2DBytesCounter()->Add(static_cast<double>(bytes));
  return Status::OK();
}

Status DataTransferHub::RetrieveData(DeviceId device, BufferId src, void* dst,
                                     size_t bytes) {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_RETURN_NOT_OK(
      dev->RetrieveData(src, dst, bytes, 0).WithDevice(device));
  bytes_d2h_ += bytes;
  D2HBytesCounter()->Add(static_cast<double>(bytes));
  return Status::OK();
}

Result<BufferId> DataTransferHub::Router(DeviceId src_device, BufferId src,
                                         DeviceId dst_device, size_t bytes) {
  // Same-device routing is a pure no-op: the data is already resident, so
  // neither transfer counter may be charged.
  if (src_device == dst_device) return src;
  ADAMANT_RETURN_NOT_OK(CheckCancel());
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * to,
                           manager_->GetDevice(dst_device));
  // The host is the only interconnect between plugged devices.
  std::vector<uint8_t> scratch(bytes);
  {
    obs::TraceSpan d2h_span;
    if (obs::TracingEnabled()) {
      d2h_span.Start(static_cast<int>(src_device), "d2h:route");
      d2h_span.set_args(BytesArgs(bytes));
    }
    ADAMANT_RETURN_NOT_OK(
        RetrieveData(src_device, src, scratch.data(), bytes));
  }
  ADAMANT_ASSIGN_OR_RETURN(BufferId dst,
                           PrepareDeviceMemory(to, dst_device, bytes));
  ChargeAllocate(dst_device, bytes);
  obs::TraceSpan h2d_span;
  if (obs::TracingEnabled()) {
    h2d_span.Start(static_cast<int>(dst_device), "h2d:route");
    h2d_span.set_args(BytesArgs(bytes));
  }
  Status st = to->PlaceData(dst, scratch.data(), bytes, 0);
  if (!st.ok()) {
    (void)to->DeleteMemory(dst);
    ChargeFree(dst_device, bytes);
    return st.WithDevice(dst_device);
  }
  bytes_h2d_ += bytes;
  H2DBytesCounter()->Add(static_cast<double>(bytes));
  return dst;
}

Result<BufferId> DataTransferHub::EnsureFormat(DeviceId device, BufferId id,
                                               SdkFormat target,
                                               size_t bytes) {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_ASSIGN_OR_RETURN(SdkFormat current, dev->BufferFormat(id));
  switch (transforms_.PlanRoute(current, target)) {
    case DataContainer::Route::kNone:
      return id;
    case DataContainer::Route::kTransform:
      ADAMANT_RETURN_NOT_OK(dev->TransformMemory(id, target).WithDevice(device));
      return id;
    case DataContainer::Route::kHostRoundTrip: {
      // The naive path of Fig. 4: through the host, transform there, back.
      std::vector<uint8_t> scratch(bytes);
      {
        obs::TraceSpan d2h_span;
        if (obs::TracingEnabled()) {
          d2h_span.Start(static_cast<int>(device), "d2h:transform");
          d2h_span.set_args(BytesArgs(bytes));
        }
        ADAMANT_RETURN_NOT_OK(RetrieveData(device, id, scratch.data(), bytes));
      }
      ADAMANT_RETURN_NOT_OK(dev->DeleteMemory(id).WithDevice(device));
      ChargeFree(device, bytes);
      ADAMANT_ASSIGN_OR_RETURN(BufferId fresh,
                               PrepareDeviceMemory(dev, device, bytes));
      ChargeAllocate(device, bytes);
      // `fresh` belongs to this call until it is returned: a failed place or
      // transform must give it (and its charge) back, or the buffer — which
      // the caller never learns about — leaks for the rest of the query.
      Status st = dev->PlaceData(fresh, scratch.data(), bytes, 0);
      if (st.ok()) {
        bytes_h2d_ += bytes;
        H2DBytesCounter()->Add(static_cast<double>(bytes));
        st = dev->TransformMemory(fresh, target);
      }
      if (!st.ok()) {
        (void)dev->DeleteMemory(fresh);
        ChargeFree(device, bytes);
        return st.WithDevice(device);
      }
      return fresh;
    }
  }
  return Status::Internal("unreachable transform route");
}

Result<BufferId> DataTransferHub::PrepareOutputBuffer(DeviceId device,
                                                      DataSemantic semantic,
                                                      size_t bytes,
                                                      bool pinned) {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  BufferId id;
  if (pinned) {
    ADAMANT_ASSIGN_OR_RETURN(id,
                             TagResult(dev->AddPinnedMemory(bytes), device));
  } else {
    ADAMANT_ASSIGN_OR_RETURN(id, PrepareDeviceMemory(dev, device, bytes));
    ChargeAllocate(device, bytes);
  }
  if (semantic == DataSemantic::kHashTable) {
    KernelLaunch fill = kernels::MakeFill(id, HashTableLayout::kEmptyKey,
                                          bytes / sizeof(int32_t));
    if (!dev->HasKernel("fill")) {
      // The standard library binds "fill"; a custom driver may not have it —
      // fall back to the inline implementation.
      fill.fn = kernels::GetKernelFn("fill");
    }
    Status st = dev->Execute(fill);
    if (!st.ok()) {
      (void)dev->DeleteMemory(id);
      if (!pinned) ChargeFree(device, bytes);
      return st.WithDevice(device);
    }
  }
  return id;
}

Status DataTransferHub::FreeBuffer(DeviceId device, BufferId id) {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_ASSIGN_OR_RETURN(size_t bytes, dev->BufferBytes(id));
  ADAMANT_ASSIGN_OR_RETURN(MemoryKind kind, dev->BufferMemoryKind(id));
  ADAMANT_RETURN_NOT_OK(dev->DeleteMemory(id).WithDevice(device));
  if (kind == MemoryKind::kDevice) ChargeFree(device, bytes);
  return Status::OK();
}

Status DataTransferHub::FreeBufferBestEffort(DeviceId device, BufferId id) {
  ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager_->GetDevice(device));
  ADAMANT_ASSIGN_OR_RETURN(size_t bytes, dev->BufferBytes(id));
  ADAMANT_ASSIGN_OR_RETURN(MemoryKind kind, dev->BufferMemoryKind(id));
  Status st = dev->DeleteMemory(id);
  if (!st.ok() && st.IsTransient()) st = dev->DeleteMemory(id);
  if (kind == MemoryKind::kDevice) ChargeFree(device, bytes);
  return st.WithDevice(device);
}

}  // namespace adamant
