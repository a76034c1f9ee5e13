#ifndef ADAMANT_RUNTIME_TRANSFER_HUB_H_
#define ADAMANT_RUNTIME_TRANSFER_HUB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "device/device_manager.h"
#include "runtime/runtime_hooks.h"
#include "storage/column.h"
#include "task/containers.h"
#include "task/primitive.h"

namespace adamant {

/// The runtime layer's data transfer hub (Section III-C): loads input data
/// onto devices, routes data across devices and SDK formats, and prepares
/// semantically-initialized output buffers.
///
/// Two optional service-layer hooks plug in here: a MemoryChargeListener is
/// charged/credited for every device-memory allocation the hub makes or
/// frees, and a ScanBufferCache lets LoadColumnChunk reuse device-resident
/// column chunks across queries instead of re-transferring them.
class DataTransferHub {
 public:
  DataTransferHub(DeviceManager* manager, DataContainer transforms)
      : manager_(manager), transforms_(std::move(transforms)) {}

  void set_memory_listener(MemoryChargeListener* listener) {
    memory_listener_ = listener;
  }
  void set_scan_cache(ScanBufferCache* cache) { scan_cache_ = cache; }
  ScanBufferCache* scan_cache() const { return scan_cache_; }
  /// Cooperative cancellation for the owning run (not owned, may be null):
  /// LoadData / LoadColumnChunk / PlaceChunk / Router bail with the token's
  /// status before moving bytes, so a cancelled run stops transferring at
  /// the next chunk instead of streaming to the end. RetrieveData and the
  /// teardown paths (FreeBuffer*, EnsureFormat cleanup) never check it —
  /// unwinding must always complete.
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel_token() const { return cancel_; }

  /// load_data(): allocates a device buffer and places `bytes` of host data.
  Result<BufferId> LoadData(DeviceId device, const void* src, size_t bytes);

  /// load_data() for a scan-column chunk, through the scan cache when one is
  /// attached: `column[base_row, base_row + count)` with `elem_size`-byte
  /// elements ends up device-resident. On a cache hit nothing moves over the
  /// wire; on a miss the cache (or, without one, the hub) allocates and the
  /// chunk is placed. See ScanBufferCache for the lease protocol; when the
  /// returned lease has `cached == false`, the caller owns the buffer.
  Result<ScanBufferCache::Lease> LoadColumnChunk(DeviceId device,
                                                 const ColumnPtr& column,
                                                 size_t base_row, size_t count,
                                                 size_t elem_size);

  /// Places a chunk of host data into an existing device buffer.
  Status PlaceChunk(DeviceId device, BufferId dst, const void* src,
                    size_t bytes, size_t dst_offset = 0);

  /// retrieve_data(): reads `bytes` of `src` on `device` back to host `dst`
  /// and counts them as D2H. Adds no cancellation point: a run checks its
  /// token at pipeline and chunk boundaries.
  Status RetrieveData(DeviceId device, BufferId src, void* dst, size_t bytes);

  /// router(): makes the content of `src` (on `src_device`) available on
  /// `dst_device`. Cross-device movement goes through the host (retrieve +
  /// place); the same-device case is a no-op that charges no transfer
  /// bytes. Returns the buffer id on the destination device.
  Result<BufferId> Router(DeviceId src_device, BufferId src,
                          DeviceId dst_device, size_t bytes);

  /// Converts a buffer's SDK format, using transform_memory() when the
  /// transformation table allows it and the naive host round-trip otherwise
  /// (Fig. 4). Returns the (possibly new) buffer id.
  Result<BufferId> EnsureFormat(DeviceId device, BufferId id, SdkFormat target,
                                size_t bytes);

  /// prepare_output_buffer(): allocates `bytes` for a primitive output and
  /// applies semantic initialization — HASH_TABLE buffers are filled with
  /// the empty-key sentinel via the device's fill kernel.
  Result<BufferId> PrepareOutputBuffer(DeviceId device, DataSemantic semantic,
                                       size_t bytes, bool pinned = false);

  /// delete_memory() with budget credit: frees a buffer previously allocated
  /// through this hub and credits the memory listener.
  Status FreeBuffer(DeviceId device, BufferId id);

  /// FreeBuffer for unwind paths: a failed delete_memory is retried once
  /// (transient faults clear), and the memory listener is credited even
  /// when the delete ultimately fails — the query's accounting must drain
  /// to zero regardless; a buffer the device refuses to release is the
  /// device's leak, reported in the returned status, not a phantom charge
  /// pinned on the next query's budget.
  Status FreeBufferBestEffort(DeviceId device, BufferId id);

  size_t bytes_host_to_device() const { return bytes_h2d_; }
  size_t bytes_device_to_host() const { return bytes_d2h_; }
  /// Transfer bytes avoided by scan-cache hits, and the hit/miss counts.
  size_t bytes_h2d_saved() const { return bytes_h2d_saved_; }
  size_t scan_cache_hits() const { return scan_cache_hits_; }
  size_t scan_cache_misses() const { return scan_cache_misses_; }
  const DataContainer& transforms() const { return transforms_; }

 private:
  /// PrepareMemory with a second chance: when the device arena is full and
  /// a scan cache is attached, unpinned cached chunks are evicted and the
  /// allocation retried once, so cache residency cannot OOM-fail a query.
  Result<BufferId> PrepareDeviceMemory(SimulatedDevice* dev, DeviceId device,
                                       size_t bytes);

  /// Every error leaving the hub is tagged with the device whose interface
  /// call failed (Status::WithDevice), so retry and quarantine upstairs
  /// know whom to blame without parsing messages.
  template <typename T>
  static Result<T> TagResult(Result<T> result, DeviceId device) {
    if (result.ok()) return result;
    return std::move(result).status().WithDevice(device);
  }

  void ChargeAllocate(DeviceId device, size_t bytes) {
    if (memory_listener_ != nullptr) memory_listener_->OnAllocate(device, bytes);
  }
  void ChargeFree(DeviceId device, size_t bytes) {
    if (memory_listener_ != nullptr) memory_listener_->OnFree(device, bytes);
  }

  /// Returns the token's status when tripped, OK otherwise (or when no
  /// token is attached).
  Status CheckCancel() const {
    return cancel_ == nullptr ? Status::OK() : cancel_->Check();
  }

  DeviceManager* manager_;
  DataContainer transforms_;
  MemoryChargeListener* memory_listener_ = nullptr;
  ScanBufferCache* scan_cache_ = nullptr;
  CancelToken* cancel_ = nullptr;
  size_t bytes_h2d_ = 0;
  size_t bytes_d2h_ = 0;
  size_t bytes_h2d_saved_ = 0;
  size_t scan_cache_hits_ = 0;
  size_t scan_cache_misses_ = 0;
};

}  // namespace adamant

#endif  // ADAMANT_RUNTIME_TRANSFER_HUB_H_
