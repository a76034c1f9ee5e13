#ifndef ADAMANT_PLAN_CALIBRATION_H_
#define ADAMANT_PLAN_CALIBRATION_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "plan/logical_plan.h"
#include "runtime/primitive_graph.h"

namespace adamant::plan {

/// What the engine learns from finished runs, in one store that the
/// compile pipeline (CompileQuery), deadline admission and the service's
/// history all read. Every estimate is an EWMA whose first sample seeds it:
///
///   * Selectivities per query name, from EXPLAIN ANALYZE operator stats,
///     under two key families. "step:<producer label>" is the cumulative
///     selectivity of a logical step (a filter chain's MATERIALIZE, a
///     join's HASH_PROBE) and refines the planner's predicate and join
///     estimates (ApplyToLogicalPlan). "label:<node label>#<ordinal>" keeps
///     the worst per-chunk selectivity a physical node ever exhibited and
///     sizes buffers (ApplyToGraph): an overflowing buffer fails the query,
///     so sizing pads the peak, never the mean.
///   * Observed-over-predicted per-chunk cost per device *name*, from
///     device-parallel runs. The ratio, unlike the raw cost, transfers
///     across queries: a device whose chunks run 1.5x the model's
///     prediction gets a smaller split share on the next compile.
///   * Run wall time per query name and per predicted simulated us, which
///     turns a plan's price into a wall-time prediction.
///
/// All methods are thread-safe.
class Calibration {
 public:
  /// EWMA weights of the newest sample, per family: selectivities,
  /// split cost ratios, run wall times.
  static constexpr double kSelectivityAlpha = 0.4;
  static constexpr double kSplitAlpha = 0.3;
  static constexpr double kRunAlpha = 0.2;
  /// Head-room multiplied onto observed peaks before they size buffers —
  /// deliberately tighter than lowering's blind 1.3x margin, since it pads
  /// a measurement instead of a guess.
  static constexpr double kSizingMargin = 1.1;
  /// Selectivities are clamped to [kSelectivityFloor, 1] on application.
  static constexpr double kSelectivityFloor = 1e-3;
  /// Split cost ratios are clamped to [1/kMaxSkew, kMaxSkew] so one wild
  /// sample cannot starve a device of chunks forever.
  static constexpr double kMaxSkew = 16.0;

  // --- Selectivities ---

  /// Folds one completed run's operator tree into the model for
  /// `query_name`. Operators with no rows seen are skipped.
  void ObserveOperators(const std::string& query_name,
                        const std::vector<obs::OperatorStats>& operators);

  /// Replaces the capacity estimate (NodeConfig::selectivity) of selective
  /// nodes in a freshly lowered graph with observed peaks. Nodes are
  /// matched by label + per-label ordinal, which is stable across
  /// recompiles of the same plan shape. Returns the number of nodes
  /// adjusted.
  int ApplyToGraph(const std::string& query_name, PrimitiveGraph* graph) const;

  /// Rewrites filter-predicate and join selectivities of a logical plan
  /// with observed step selectivities; untouched subtrees are shared with
  /// the input. `adjusted`, when given, receives the number of estimates
  /// replaced.
  LogicalNodePtr ApplyToLogicalPlan(const std::string& query_name,
                                    LogicalNodePtr root,
                                    int* adjusted = nullptr) const;

  /// Number of ObserveOperators() calls folded in for `query_name`.
  size_t RunsObserved(const std::string& query_name) const;

  // --- Device-parallel split ---

  /// Folds one device's per-chunk prediction error from a completed run.
  /// Non-positive inputs are ignored (no chunks ran, or no estimate).
  void ObserveSplit(const std::string& device_name, double predicted_chunk_us,
                    double observed_chunk_us);

  /// Smoothed observed/predicted cost ratio for a device name; 1.0 when the
  /// device has never been observed.
  double SplitRatio(const std::string& device_name) const;

  /// Rescales model-predicted split weights by each device's calibration:
  /// weight_i /= ratio_i, renormalized. `names` is parallel to `weights`;
  /// when it is not, the weights come back unchanged.
  std::vector<double> CalibrateWeights(const std::vector<std::string>& names,
                                       std::vector<double> weights) const;

  /// Number of ObserveSplit() samples folded in across all devices.
  size_t SplitObservations() const;

  // --- Run wall time ---

  /// Folds one completed run: its predicted simulated cost and observed
  /// wall time. Non-positive wall time is no observation; a run without a
  /// price seeds its name but not the fleet's wall-per-sim ratio.
  void ObserveRun(const std::string& query_name, double sim_us,
                  double wall_ms);

  /// Predicted wall milliseconds for one run of `query_name` with predicted
  /// simulated cost `sim_us`, best estimator first: the name's own EWMA (a
  /// repeated query predicts itself), then the fleet's wall-per-sim ratio x
  /// `sim_us` (a new query borrows it). Never below `floor_ms`, which is
  /// also the answer when uncalibrated — a cold service is permissive.
  double PredictWallMs(const std::string& query_name, double sim_us,
                       double floor_ms) const;

  /// EWMA of observed run wall time across all queries (0 until the first
  /// observation) — the queue-wait arithmetic's per-slot service time.
  double avg_run_ms() const;

  /// Number of ObserveRun() calls folded in.
  size_t RunObservations() const;

  /// One JSON snapshot of every family: {"selectivity":{...},"split":{...},
  /// "runs":{...}}.
  std::string ToJson() const;

 private:
  /// Exponentially weighted mean; the first sample seeds it.
  struct Ewma {
    double value = 0;
    size_t observations = 0;

    void Fold(double sample, double alpha);
  };
  struct Selectivity {
    Ewma mean;        // smoothed cumulative selectivity of the step
    double peak = 0;  // max per-chunk selectivity ever observed
  };
  struct QueryModel {
    std::map<std::string, Selectivity> keys;
    size_t runs = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, QueryModel> selectivity_;
  std::map<std::string, Ewma> split_ratio_;  // by device name
  std::map<std::string, Ewma> run_wall_ms_;  // by query name
  Ewma avg_run_ms_;
  Ewma wall_ms_per_sim_us_;
};

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_CALIBRATION_H_
