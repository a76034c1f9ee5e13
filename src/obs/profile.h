#ifndef ADAMANT_OBS_PROFILE_H_
#define ADAMANT_OBS_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adamant::obs {

class MetricsRegistry;

/// One device's share of one pipeline: simulated time this device spent
/// moving data in (H2D), moving results out (D2H), and computing, while the
/// pipeline was running.
struct PipelineDeviceSlice {
  int device = 0;
  double sim_h2d_us = 0;
  double sim_d2h_us = 0;
  double sim_compute_us = 0;
};

/// Per-pipeline breakdown within a query run.
struct PipelineProfile {
  int index = 0;
  double wall_ms = 0;
  /// Chunks this run executed in the pipeline (summed over partitions).
  size_t chunks = 0;
  /// True when the run was cancelled (deadline, client cancel, watchdog)
  /// while this pipeline was executing — its chunk count and timings cover
  /// only the work done before the token tripped.
  bool cancelled = false;
  std::vector<PipelineDeviceSlice> devices;
};

/// One operator's share of one run on one partition device. Single-device
/// models record exactly one slice per operator; the device-parallel model
/// merges one slice per partition device.
struct OperatorDeviceSlice {
  int device = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  size_t launches = 0;
  double kernel_ms = 0;
};

/// EXPLAIN ANALYZE: one lowered-plan node's predicted vs measured runtime,
/// aligned node-for-node with the primitive graph (node_id/label/kind).
/// Collected by RunContext when ExecutionOptions::collect_operator_stats is
/// set; predictions are stamped from the graph annotations and the node
/// device's perf model at finalize time.
struct OperatorStats {
  int node_id = -1;
  int pipeline = -1;
  std::string label;
  std::string kind;
  /// Links this operator back to the logical construct it lowered from
  /// (e.g. "step:lower.filter(l_shipdate)"); empty when the operator
  /// carries no selectivity estimate. Consumed by the selectivity feedback
  /// cache (plan/calibration.h).
  std::string feedback_key;
  /// True for kinds sized by selectivity (PrimitiveSignature::
  /// sized_by_selectivity: FILTER_POSITION / MATERIALIZE / HASH_PROBE /
  /// FUSED) — the operators a selectivity q-error is meaningful for.
  bool selective = false;

  // --- Predicted ---
  double predicted_selectivity = 1.0;
  double predicted_rows_in = 0;
  double predicted_rows_out = 0;
  /// Static per-node simulated cost (us): the node's share of the graph
  /// price (exec::PriceGraph) — one launch per chunk at full chunk
  /// cardinality, priced by the device that charges it.
  double predicted_cost_us = 0;

  // --- Measured ---
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Largest per-chunk rows_out/rows_in — what output buffers must actually
  /// absorb (the feedback cache applies this, not the run average).
  double max_chunk_selectivity = 0;
  size_t launches = 0;
  /// Wall time inside Execute: all of it, then split by how the launches
  /// ran — on one thread, on more (the run's thread budget for a kernel
  /// that tiles), or as a fused composite.
  double kernel_ms = 0;
  double scalar_ms = 0;
  double parallel_ms = 0;
  double fused_ms = 0;
  /// q-errors (QError), stamped when the run's stats are finalized; 0 where
  /// none applies. Selectivity: selective operators that saw input rows.
  /// Cost: operators that launched, comparing this operator's share of the
  /// predicted total with its share of the measured kernel_ms total (so the
  /// simulated-us prediction and the wall-ms measurement need no common
  /// unit), when both totals are positive.
  double selectivity_qerror = 0;
  double cost_qerror = 0;
  uint64_t bytes_h2d = 0;
  uint64_t bytes_d2h = 0;
  size_t cache_hits = 0;
  std::vector<OperatorDeviceSlice> devices;

  double ActualSelectivity() const {
    return rows_in == 0 ? 0.0
                        : static_cast<double>(rows_out) /
                              static_cast<double>(rows_in);
  }
};

/// q-error (Leis et al., "How Good Are Query Optimizers, Really?"):
/// max(predicted/actual, actual/predicted), >= 1. Zero-sided estimates
/// clamp to a tiny floor so a missed empty/full prediction yields a large
/// finite error instead of inf.
double QError(double predicted, double actual);

/// The wall-clock phase profile of one run (QueryStats::profile): run time,
/// one entry per pipeline, and the EXPLAIN ANALYZE tree. Filled by the
/// executor when ExecutionOptions::collect_profile is set (the operator
/// tree under collect_operator_stats).
struct QueryProfile {
  /// Why the run ended early, or empty for a completed run: "user",
  /// "deadline", or "watchdog" (CancelCauseToString of the tripped token).
  std::string cancelled_cause;
  double run_ms = 0;  // wall
  std::vector<PipelineProfile> pipelines;
  /// EXPLAIN ANALYZE tree (node-id order), present when the run collected
  /// operator stats.
  std::vector<OperatorStats> operators;
};

/// Observes every operator's stamped selectivity and cost q-error into the
/// `adamant_plan_qerror_selectivity` / `adamant_plan_qerror_cost`
/// histograms of `metrics` (labelled by query name).
void RecordPlanQErrors(MetricsRegistry* metrics, const std::string& query_name,
                       const std::vector<OperatorStats>& operators);

}  // namespace adamant::obs

#endif  // ADAMANT_OBS_PROFILE_H_
