#ifndef ADAMANT_SERVICE_SCHEDULER_H_
#define ADAMANT_SERVICE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "runtime/executor.h"
#include "sql/compile.h"

namespace adamant {

/// Two-level admission priority: high-priority queries dispatch before any
/// normal-priority query; FIFO within a level.
enum class QueryPriority { kNormal = 0, kHigh = 1 };

/// A query submitted to the service, as SQL text or as a graph factory.
/// Each attempt compiles through CompileQuery (sql/compile.h) for the
/// devices the scheduler leased, from `eligible_devices` (empty = any).
/// SQL specs (`sql` + `sql_catalog`) compile once at Submit, where errors
/// surface with line:col diagnostics, and each attempt lowers, sizes and
/// fuses that plan exactly as `run_tpch --sql` does; extract results from
/// the ticket's plan(). `make_graph` graphs run as their caller built them
/// (feedback-sized, never fused): fusion renumbers nodes, and the service
/// cannot see which terminal node ids the caller extracts results by.
struct QuerySpec {
  std::string name;
  std::function<Result<std::unique_ptr<PrimitiveGraph>>(DeviceId)> make_graph;
  /// SQL alternative to make_graph (exclusive with it). Requires
  /// sql_catalog; must stay alive until Submit returns.
  std::string sql;
  const Catalog* sql_catalog = nullptr;
  ExecutionOptions options;
  QueryPriority priority = QueryPriority::kNormal;
  /// Soft SLO deadline, milliseconds from Submit; 0 = none. With a deadline
  /// the service (a) sheds the query at admission when predicted cost plus
  /// queue wait cannot meet it, (b) evicts it from the queue once it lapses,
  /// and (c) arms the run's CancelToken so in-flight work unwinds when the
  /// deadline passes mid-run.
  double deadline_ms = 0;
  std::vector<DeviceId> eligible_devices;
  /// Devices to lease together for one run. 1 (default) is the classic
  /// single-device lease. >1 requires options.model == kDeviceParallel: the
  /// scheduler atomically leases that many free devices whose budget holds
  /// the query's footprint estimate (a per-device bound under the chunk
  /// split) and the run splits its chunk range across them. The query
  /// stays queued until that many are free at once; Submit rejects it with
  /// OutOfMemory when fewer than that many eligible budgets can hold it.
  size_t parallel_devices = 1;
};

/// Handle returned by QueryService::Submit. Wait() blocks until the query
/// has run (or failed) and returns its result; timing fields are valid
/// afterwards.
class QueryTicket {
 public:
  /// Blocks until completion.
  const Result<QueryExecution>& Wait();
  bool done() const;

  const std::string& name() const { return name_; }
  /// Device the scheduler placed the query on (-1 if it never dispatched).
  /// After retries, the device of the final attempt. For a multi-device
  /// lease (QuerySpec::parallel_devices > 1) this is the primary device;
  /// placed_devices() has the full set.
  DeviceId placed_device() const { return placed_device_; }
  /// Every device leased for the final attempt (empty if it never
  /// dispatched; a single element for classic single-device leases).
  const std::vector<DeviceId>& placed_devices() const {
    return placed_devices_;
  }
  double queue_wait_ms() const { return queue_wait_ms_; }
  double run_ms() const { return run_ms_; }
  /// Dispatch attempts this query took (1 = no retry). Valid after Wait().
  size_t attempts() const { return attempts_; }
  /// The plan the final attempt ran; null when no attempt compiled. Extract
  /// results from its bundle (SQL specs: with sql::ExtractResults over its
  /// query). A make_graph plan names no nodes; its result_node is the
  /// graph's only terminal node, when it has exactly one. Valid after
  /// Wait().
  const std::shared_ptr<const CompiledPlan>& plan() const { return plan_; }

 private:
  friend class QueryService;
  void Complete(Result<QueryExecution> result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Result<QueryExecution>> result_;
  std::string name_;
  DeviceId placed_device_ = -1;
  std::vector<DeviceId> placed_devices_;
  double queue_wait_ms_ = 0;
  double run_ms_ = 0;
  size_t attempts_ = 0;
  std::shared_ptr<const CompiledPlan> plan_;
};

/// A queued query: spec + ticket + the devices that can hold it.
struct QueuedQuery {
  QuerySpec spec;
  std::shared_ptr<QueryTicket> ticket;
  /// The eligible devices whose budget holds the query's footprint estimate
  /// (EstimateDeviceMemoryBytes, nominal bytes), in eligible-list order
  /// (ascending id when any device is eligible). Every lease comes from
  /// this list.
  std::vector<DeviceId> fitting_devices;
  std::chrono::steady_clock::time_point submit_time;
  /// Retry bookkeeping (see QueryService's RetryPolicy). `attempt` counts
  /// dispatches so far; after a transient failure the query is requeued
  /// with the failing device appended to `excluded_devices` and a backoff
  /// deadline in `not_before`.
  size_t attempt = 0;
  std::vector<DeviceId> excluded_devices;
  std::chrono::steady_clock::time_point not_before{};
  /// Absolute deadline (valid iff has_deadline), from spec.deadline_ms.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Predicted simulated run cost (us): the price of the plan compiled on
  /// the probe device at Submit. Feeds admission shedding and the watchdog
  /// budget via the service's plan::Calibration.
  double predicted_sim_us = 0;
  /// SQL specs: the query Submit compiled, lowered again for each lease.
  std::shared_ptr<const sql::CompiledQuery> sql;
};

/// Bounded two-level FIFO of pending queries. Not internally synchronized —
/// QueryService guards it (together with the slot table, so "pick a query
/// AND a device" is one atomic decision) under its own mutex.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t max_size) : max_size_(max_size) {}

  size_t size() const { return high_.size() + normal_.size(); }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= max_size_; }

  /// Caller must check full() first.
  void Push(std::shared_ptr<QueuedQuery> query);

  /// Removes and returns the first query (priority order, FIFO within a
  /// level) for which `admit` returns true; nullptr when none qualifies.
  /// Skipped queries keep their position.
  std::shared_ptr<QueuedQuery> PopFirst(
      const std::function<bool(const QueuedQuery&)>& admit);

  /// Removes and returns every query for which `evict` returns true, in
  /// queue order. Used for deadline eviction: the caller completes the
  /// evicted tickets (outside its lock if it prefers) — eviction must not
  /// depend on a worker happening to dispatch.
  std::vector<std::shared_ptr<QueuedQuery>> EvictIf(
      const std::function<bool(const QueuedQuery&)>& evict);

 private:
  size_t max_size_;
  std::deque<std::shared_ptr<QueuedQuery>> high_;
  std::deque<std::shared_ptr<QueuedQuery>> normal_;
};

/// One busy flag per device: the service leases each device to one query
/// at a time, so a run owns its device's clocks and counters. Not
/// internally synchronized (see AdmissionQueue).
class DeviceSlotTable {
 public:
  explicit DeviceSlotTable(size_t num_devices) : busy_(num_devices, false) {}

  void Acquire(DeviceId device) { busy_[static_cast<size_t>(device)] = true; }
  void Release(DeviceId device) { busy_[static_cast<size_t>(device)] = false; }

  /// The first `count` free devices among `candidates`, sorted by id;
  /// fewer when fewer are free.
  std::vector<DeviceId> PickFreeSet(const std::vector<DeviceId>& candidates,
                                    size_t count) const;

 private:
  std::vector<bool> busy_;
};

}  // namespace adamant

#endif  // ADAMANT_SERVICE_SCHEDULER_H_
