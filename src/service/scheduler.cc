#include "service/scheduler.h"

#include <algorithm>

namespace adamant {

const Result<QueryExecution>& QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return result_.has_value(); });
  return *result_;
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_.has_value();
}

void QueryTicket::Complete(Result<QueryExecution> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_.emplace(std::move(result));
  }
  cv_.notify_all();
}

void AdmissionQueue::Push(std::shared_ptr<QueuedQuery> query) {
  auto& level =
      query->spec.priority == QueryPriority::kHigh ? high_ : normal_;
  level.push_back(std::move(query));
}

std::shared_ptr<QueuedQuery> AdmissionQueue::PopFirst(
    const std::function<bool(QueuedQuery&)>& admit) {
  for (auto* level : {&high_, &normal_}) {
    for (auto it = level->begin(); it != level->end(); ++it) {
      if (admit(**it)) {
        std::shared_ptr<QueuedQuery> query = std::move(*it);
        level->erase(it);
        return query;
      }
    }
  }
  return nullptr;
}

std::vector<std::shared_ptr<QueuedQuery>> AdmissionQueue::EvictIf(
    const std::function<bool(const QueuedQuery&)>& evict) {
  std::vector<std::shared_ptr<QueuedQuery>> evicted;
  for (auto* level : {&high_, &normal_}) {
    for (auto it = level->begin(); it != level->end();) {
      if (evict(**it)) {
        evicted.push_back(std::move(*it));
        it = level->erase(it);
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

std::vector<DeviceId> DeviceSlotTable::PickLeastLoadedSet(
    const std::vector<DeviceId>& eligible, size_t count,
    const std::function<bool(DeviceId)>& fits, bool* had_free_slot) const {
  std::vector<DeviceId> candidates;
  auto consider = [&](DeviceId device) {
    if (HasFree(device)) candidates.push_back(device);
  };
  if (eligible.empty()) {
    for (size_t i = 0; i < active_.size(); ++i) {
      consider(static_cast<DeviceId>(i));
    }
  } else {
    for (DeviceId device : eligible) consider(device);
  }
  if (had_free_slot != nullptr) *had_free_slot = candidates.size() >= count;
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](DeviceId a, DeviceId b) {
                     return active(a) < active(b);
                   });
  std::vector<DeviceId> set;
  for (DeviceId device : candidates) {
    if (set.size() == count) break;
    if (fits(device)) set.push_back(device);
  }
  std::sort(set.begin(), set.end());
  return set;
}

}  // namespace adamant
