#include "obs/profile.h"

#include <algorithm>

#include "obs/metrics.h"

namespace adamant::obs {

namespace {

// Floor for q-error operands: a prediction (or actual) of exactly zero
// against a nonzero counterpart becomes a large finite error, and 0-vs-0
// becomes a perfect 1.0.
constexpr double kQErrorFloor = 1e-9;

}  // namespace

double QError(double predicted, double actual) {
  const double p = std::max(predicted, kQErrorFloor);
  const double a = std::max(actual, kQErrorFloor);
  return std::max(p / a, a / p);
}

void RecordPlanQErrors(MetricsRegistry* metrics, const std::string& query_name,
                       const std::vector<OperatorStats>& operators) {
  if (metrics == nullptr || operators.empty()) return;
  Histogram* sel_hist = metrics->GetHistogram("adamant_plan_qerror_selectivity",
                                              QErrorBuckets(), "query",
                                              query_name);
  Histogram* cost_hist = metrics->GetHistogram("adamant_plan_qerror_cost",
                                               QErrorBuckets(), "query",
                                               query_name);
  for (const OperatorStats& op : operators) {
    if (op.selectivity_qerror > 0) sel_hist->Observe(op.selectivity_qerror);
    if (op.cost_qerror > 0) cost_hist->Observe(op.cost_qerror);
  }
}

}  // namespace adamant::obs
