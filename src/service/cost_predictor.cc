#include "service/cost_predictor.h"

#include <algorithm>

namespace adamant {

void CostCalibration::Observe(const std::string& query_name, double sim_us,
                              double wall_ms) {
  if (wall_ms <= 0) return;
  ++observations_;
  avg_run_ms_ = observations_ == 1
                    ? wall_ms
                    : kAlpha * wall_ms + (1 - kAlpha) * avg_run_ms_;
  if (sim_us > 0) {
    const double ratio = wall_ms / sim_us;
    wall_per_sim_us_ =
        ratio_seen_ ? kAlpha * ratio + (1 - kAlpha) * wall_per_sim_us_ : ratio;
    ratio_seen_ = true;
  }
  auto [it, inserted] = by_name_.try_emplace(query_name);
  it->second.wall_ms =
      inserted ? wall_ms
               : kAlpha * wall_ms + (1 - kAlpha) * it->second.wall_ms;
}

double CostCalibration::PredictWallMs(const std::string& query_name,
                                      double sim_us, double floor_ms) const {
  auto it = by_name_.find(query_name);
  if (it != by_name_.end()) return std::max(floor_ms, it->second.wall_ms);
  if (ratio_seen_ && sim_us > 0) {
    return std::max(floor_ms, wall_per_sim_us_ * sim_us);
  }
  return floor_ms;
}

}  // namespace adamant
