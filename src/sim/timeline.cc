#include "sim/timeline.h"

#include <algorithm>

#include "common/logging.h"

namespace adamant::sim {

TimelineEntry ResourceTimeline::Schedule(SimTime earliest_start,
                                         SimTime duration,
                                         const std::string& label) {
  ADAMANT_DCHECK(duration >= 0) << "negative duration for " << label;
  SimTime start = std::max(earliest_start, available_at_);
  SimTime end = start + duration;
  available_at_ = end;
  busy_time_ += duration;
  ++op_count_;
  TimelineEntry entry{start, end, label};
  if (tracing_ && trace_.size() < kMaxTraceEntries) {
    trace_.push_back(entry);
  }
  return entry;
}

void ResourceTimeline::Reset() {
  available_at_ = 0;
  busy_time_ = 0;
  op_count_ = 0;
  trace_.clear();
}

}  // namespace adamant::sim
