#include "service/memory_budget.h"

#include <algorithm>

namespace adamant {

void MemoryBudget::Charge(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  live_ += bytes;
  live_high_water_ = std::max(live_high_water_, live_);
}

void MemoryBudget::Credit(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  live_ -= std::min(live_, bytes);
}

size_t MemoryBudget::live_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

size_t MemoryBudget::live_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_high_water_;
}

MemoryLedger::MemoryLedger(DeviceManager* manager, size_t budget_bytes,
                           size_t reserved_bytes)
    : manager_(manager) {
  budgets_.reserve(manager->num_devices());
  for (size_t i = 0; i < manager->num_devices(); ++i) {
    size_t cap = budget_bytes;
    if (cap == 0) {
      const size_t arena = manager->device(static_cast<DeviceId>(i))
                               ->device_arena()
                               .capacity();
      cap = arena - std::min(arena, reserved_bytes);
    }
    budgets_.emplace_back(cap);
  }
}

size_t MemoryLedger::Nominal(size_t actual_bytes) const {
  return static_cast<size_t>(static_cast<double>(actual_bytes) *
                             manager_->data_scale());
}

void MemoryLedger::OnAllocate(DeviceId device, size_t bytes) {
  budgets_[static_cast<size_t>(device)].Charge(Nominal(bytes));
}

void MemoryLedger::OnFree(DeviceId device, size_t bytes) {
  budgets_[static_cast<size_t>(device)].Credit(Nominal(bytes));
}

}  // namespace adamant
