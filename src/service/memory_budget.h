#ifndef ADAMANT_SERVICE_MEMORY_BUDGET_H_
#define ADAMANT_SERVICE_MEMORY_BUDGET_H_

#include <cstddef>
#include <mutex>
#include <vector>

#include "device/device_manager.h"
#include "runtime/runtime_hooks.h"

namespace adamant {

/// Admission-control budget for one device's memory, in *nominal* bytes
/// (see SimContext::data_scale). Admission compares a query's footprint
/// estimate with `capacity`: the service leases each device to one query at
/// a time, so a query whose estimate fits may run on the device, and one
/// that fits no eligible device is rejected at Submit instead of
/// OOM-failing mid-run. The `live` meter holds the bytes the transfer hub
/// actually allocated, charged through the MemoryLedger listener; it
/// validates the estimates and feeds ServiceStats.
///
/// Thread-safe.
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  MemoryBudget(MemoryBudget&& other) noexcept
      : capacity_(other.capacity_),
        live_(other.live_),
        live_high_water_(other.live_high_water_) {}

  size_t capacity() const { return capacity_; }

  void Charge(size_t bytes);
  void Credit(size_t bytes);
  size_t live_bytes() const;
  size_t live_high_water() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  size_t live_ = 0;
  size_t live_high_water_ = 0;
};

/// One MemoryBudget per plugged device, wired into the transfer hub as its
/// MemoryChargeListener. The hub reports *actual* (scaled-down) bytes; the
/// ledger converts to nominal with the manager's data scale so budgets and
/// EstimateDeviceMemoryBytes speak the same unit as the device arenas.
class MemoryLedger : public MemoryChargeListener {
 public:
  /// `budget_bytes` of 0 means "the device arena's capacity minus
  /// `reserved_bytes`" — the service passes the column-cache budget as
  /// `reserved_bytes` so admitted queries and cache residency cannot
  /// jointly overcommit the arena. An explicit `budget_bytes` is used
  /// verbatim on every device.
  MemoryLedger(DeviceManager* manager, size_t budget_bytes,
               size_t reserved_bytes = 0);

  MemoryBudget& budget(DeviceId device) {
    return budgets_[static_cast<size_t>(device)];
  }
  const MemoryBudget& budget(DeviceId device) const {
    return budgets_[static_cast<size_t>(device)];
  }
  size_t num_devices() const { return budgets_.size(); }

  void OnAllocate(DeviceId device, size_t bytes) override;
  void OnFree(DeviceId device, size_t bytes) override;

 private:
  size_t Nominal(size_t actual_bytes) const;

  DeviceManager* manager_;
  std::vector<MemoryBudget> budgets_;
};

}  // namespace adamant

#endif  // ADAMANT_SERVICE_MEMORY_BUDGET_H_
