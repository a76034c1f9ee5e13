#ifndef ADAMANT_TASK_WORKER_POOL_H_
#define ADAMANT_TASK_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"

namespace adamant::task {

/// Shared, lazily-started worker pool backing tiled kernel runs
/// (task/kernels_internal.h). Threads are spawned once on the first parallel
/// region and reused across kernel launches — a launch never pays a thread
/// spawn, only a condvar wake.
///
/// Work model: a *region* is a fixed set of tiles [0, num_tiles). Tiles are
/// claimed with a single atomic fetch-add (monotonically increasing index),
/// the submitting thread participates, and up to `max_threads - 1` pool
/// workers join. One region runs at a time: concurrent submitters (e.g. the
/// device-parallel run's partition threads, each inside its device's
/// call mutex) queue on the submit mutex rather than interleaving tiles of
/// different kernels.
///
/// Error semantics are deterministic: if several tiles fail, the region
/// reports the error of the lowest-numbered failing tile. Tile claims are
/// monotonic, so every tile below a failing one has already been claimed
/// and will finish and report; claiming stops once a failure is recorded.
///
/// Observability: with tracing enabled each tile executes under a
/// `tile:<label>` span on obs::kPoolTrackBase + worker (the submitter uses
/// obs::kPoolCallerTrack), and GlobalMetrics() accumulates
/// adamant_pool_regions_total / adamant_pool_parallel_regions_total /
/// adamant_pool_tiles_total / adamant_pool_busy_us_total /
/// adamant_pool_idle_us_total.
class WorkerPool {
 public:
  /// Process-wide pool shared by every simulated device.
  static WorkerPool& Global();

  /// Upper bound on spawned workers (tracks kPoolTrackBase..+kMaxWorkers-1).
  static constexpr int kMaxWorkers = 15;

  using TileFn = std::function<Status(size_t tile)>;

  /// Runs fn(tile) for every tile in [0, num_tiles) using at most
  /// `max_threads` threads including the caller. Blocks until every claimed
  /// tile finished. max_threads <= 1 (or num_tiles < 2) runs inline on the
  /// caller without touching the pool threads.
  ///
  /// `cancel` (optional, not owned) is polled before each tile claim: once
  /// tripped, no further tiles are claimed on any thread and the region
  /// reports the token's status — unless a tile had already failed, in
  /// which case the lowest failing tile's error wins as usual.
  Status ParallelTiles(size_t num_tiles, int max_threads,
                       const std::string& label, const TileFn& fn,
                       CancelToken* cancel = nullptr);

  /// Number of spawned worker threads (0 until the first parallel region).
  int worker_count() const { return worker_count_.load(std::memory_order_relaxed); }

  ~WorkerPool();

 private:
  struct Region {
    size_t num_tiles = 0;
    const TileFn* fn = nullptr;
    const std::string* label = nullptr;
    size_t max_joiners = 0;
    CancelToken* cancel = nullptr;

    std::atomic<size_t> next_tile{0};
    std::atomic<bool> failed{false};
    // Guarded by WorkerPool::mu_.
    size_t joined = 0;
    size_t active = 0;
    // Guarded by error_mu.
    std::mutex error_mu;
    size_t error_tile = 0;
    Status error = Status::OK();
  };

  WorkerPool() = default;
  void EnsureStartedLocked();
  void WorkerMain(int index);
  /// Claims and runs tiles of `region` until exhausted or failed; records
  /// spans on `track`.
  void RunTiles(Region& region, int track);
  static void RecordError(Region& region, size_t tile, Status status);

  /// Serializes regions; held across the whole of ParallelTiles.
  std::mutex submit_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Region* current_ = nullptr;
  uint64_t region_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<int> worker_count_{0};
};

}  // namespace adamant::task

#endif  // ADAMANT_TASK_WORKER_POOL_H_
