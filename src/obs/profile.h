#ifndef ADAMANT_OBS_PROFILE_H_
#define ADAMANT_OBS_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adamant::obs {

class MetricsRegistry;

/// One device's share of one pipeline: time this device spent moving data
/// in (H2D), moving results out (D2H), and computing, while the pipeline
/// was running. Milliseconds throughout.
struct PipelineDeviceSlice {
  int device = 0;
  double transfer_ms = 0;  // H2D
  double d2h_ms = 0;
  double compute_ms = 0;
};

/// Per-pipeline breakdown within a query run.
struct PipelineProfile {
  int index = 0;
  double wall_ms = 0;
  size_t chunks = 0;
  /// True when the run was cancelled (deadline, client cancel, watchdog)
  /// while this pipeline was executing — its chunk count and timings cover
  /// only the work done before the token tripped.
  bool cancelled = false;
  std::vector<PipelineDeviceSlice> devices;
};

/// Whole-run totals for one device across all pipelines.
struct DeviceProfile {
  std::string name;
  double transfer_ms = 0;  // H2D
  double d2h_ms = 0;
  double compute_ms = 0;
  double kernel_body_ms = 0;
  size_t kernel_launches = 0;
  /// Fused-composite launches and their share of kernel_body_ms, split out
  /// so fusion wins are attributable (kernel_launches counts them too).
  size_t fused_launches = 0;
  double fused_body_ms = 0;
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

/// The paper's Fig. 10/11-style phase breakdown for one live query:
/// where did the time go — queue wait, device transfer vs compute per
/// pipeline and per device, host-side merges. Filled by the executor when
/// ExecutionOptions::collect_profile is set; queue_wait_ms is stamped by
/// the service layer. All times are milliseconds.
struct QueryProfile {
  bool collected = false;
  /// Why the run ended early, or empty for a completed run: "user",
  /// "deadline", or "watchdog" (CancelCauseToString of the tripped token).
  std::string cancelled_cause;
  double queue_wait_ms = 0;
  double run_ms = 0;
  double merge_host_ms = 0;
  std::vector<PipelineProfile> pipelines;
  std::vector<DeviceProfile> devices;
  /// EXPLAIN ANALYZE tree (node-id order), present when the run collected
  /// operator stats.
  std::vector<OperatorStats> operators;

  std::string ToJson() const;
};

/// Observes every operator's selectivity and cost q-error into the
/// `adamant_plan_qerror_selectivity` / `adamant_plan_qerror_cost`
/// histograms of `metrics` (labelled by query name). Cost q-errors compare
/// normalized cost *shares* (each side divided by its total), so the
/// comparison needs no sim-us-to-wall calibration.
void RecordPlanQErrors(MetricsRegistry* metrics, const std::string& query_name,
                       const std::vector<OperatorStats>& operators);

}  // namespace adamant::obs

#endif  // ADAMANT_OBS_PROFILE_H_
