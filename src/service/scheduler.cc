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
    const std::function<bool(const QueuedQuery&)>& admit) {
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

std::vector<DeviceId> DeviceSlotTable::PickFreeSet(
    const std::vector<DeviceId>& candidates, size_t count) const {
  std::vector<DeviceId> set;
  for (DeviceId device : candidates) {
    if (set.size() == count) break;
    if (!busy_[static_cast<size_t>(device)]) set.push_back(device);
  }
  std::sort(set.begin(), set.end());
  return set;
}

}  // namespace adamant
