#ifndef ADAMANT_SIM_TIMELINE_H_
#define ADAMANT_SIM_TIMELINE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/sim_time.h"

namespace adamant::sim {

/// One booked operation on a resource timeline (kept only when tracing).
struct TimelineEntry {
  SimTime start;
  SimTime end;
  std::string label;
};

/// A serially-reusable hardware resource (a DMA/copy engine, a compute
/// engine, the host thread). Operations are booked in FIFO order; an
/// operation starts at max(resource free, caller's earliest start). The
/// timeline accumulates busy time so benchmarks can split elapsed time into
/// transfer vs compute vs idle.
class ResourceTimeline {
 public:
  /// Books an operation and returns its [start, end] interval.
  /// `earliest_start` encodes data dependencies (input readiness).
  TimelineEntry Schedule(SimTime earliest_start, SimTime duration,
                         const std::string& label = std::string());

  SimTime available_at() const { return available_at_; }
  SimTime busy_time() const { return busy_time_; }
  size_t op_count() const { return op_count_; }

  /// When enabled, every booked operation is retained in trace() (bounded by
  /// kMaxTraceEntries to keep long chunked runs from exhausting memory).
  void set_tracing(bool enabled) { tracing_ = enabled; }
  const std::vector<TimelineEntry>& trace() const { return trace_; }

  /// Clears bookings but keeps the tracing flag.
  void Reset();

  static constexpr size_t kMaxTraceEntries = 1 << 16;

 private:
  SimTime available_at_ = 0;
  SimTime busy_time_ = 0;
  size_t op_count_ = 0;
  bool tracing_ = false;
  std::vector<TimelineEntry> trace_;
};

}  // namespace adamant::sim

#endif  // ADAMANT_SIM_TIMELINE_H_
