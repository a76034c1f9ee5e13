#ifndef ADAMANT_SERVICE_COST_PREDICTOR_H_
#define ADAMANT_SERVICE_COST_PREDICTOR_H_

#include <cstddef>
#include <map>
#include <string>

namespace adamant {

/// Turns predicted simulated cost — the query's static graph price on its
/// probe device (exec::PriceGraph), the same model the simulated clock
/// charges — into predicted wall time, calibrating itself from completed
/// runs. Two estimators, best first:
///   1. per-query-name EWMA of observed wall ms (a repeated query predicts
///      itself);
///   2. global EWMA of the observed wall_ms / sim_us ratio × the query's
///      predicted sim cost (a *new* query borrows the fleet's ratio).
/// Both fall back to `floor_ms` when uncalibrated, so a cold service is
/// permissive rather than trigger-happy. Not internally synchronized —
/// QueryService guards it under its own mutex.
class CostCalibration {
 public:
  /// Folds one completed run into the EWMAs.
  void Observe(const std::string& query_name, double sim_us, double wall_ms);

  /// Predicted wall milliseconds for one run of `query_name` with predicted
  /// simulated cost `sim_us`; never below `floor_ms`.
  double PredictWallMs(const std::string& query_name, double sim_us,
                       double floor_ms) const;

  /// EWMA of observed run wall time across all queries (0 until the first
  /// observation) — the queue-wait arithmetic's per-slot service time.
  double avg_run_ms() const { return avg_run_ms_; }
  bool calibrated() const { return observations_ > 0; }
  size_t observations() const { return observations_; }

 private:
  /// EWMA weight of the newest observation. High enough to track phase
  /// changes (new data scale, device mix), low enough to ride out one
  /// outlier.
  static constexpr double kAlpha = 0.2;

  double wall_per_sim_us_ = 0;  // wall_ms per simulated us
  bool ratio_seen_ = false;
  double avg_run_ms_ = 0;
  size_t observations_ = 0;
  struct NameEntry {
    double wall_ms = 0;
  };
  std::map<std::string, NameEntry> by_name_;
};

}  // namespace adamant

#endif  // ADAMANT_SERVICE_COST_PREDICTOR_H_
