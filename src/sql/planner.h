#ifndef ADAMANT_SQL_PLANNER_H_
#define ADAMANT_SQL_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_manager.h"
#include "plan/calibration.h"
#include "plan/logical_plan.h"
#include "sql/binder.h"

namespace adamant::sql {

struct PlannerOptions {
  /// When set, join build order is priced with this manager's simulated
  /// device perf model (hash_build / hash_probe kernel rates); otherwise
  /// unit rates are used (relative order is what matters).
  DeviceManager* manager = nullptr;
  DeviceId cost_device = 0;
  /// Sampling stride handed to plan::AnnotateSelectivities.
  size_t sample_every = 7;
  /// When set (with a non-empty feedback_name), observed selectivities from
  /// prior EXPLAIN ANALYZE runs of the same query override the sampled
  /// estimates (plan::Calibration::ApplyToLogicalPlan). Not owned.
  const plan::Calibration* feedback = nullptr;
  std::string feedback_name;
};

/// A planned query, ready to lower: the annotated LogicalNode tree plus
/// everything the result extractor needs (output layout, packed-key
/// decoding, ORDER BY / LIMIT) and the planner's explain bookkeeping.
struct CompiledQuery {
  plan::LogicalNodePtr plan;
  bool grouped = false;
  /// >0 when two GROUP BY columns are packed: key = first * pack_mod +
  /// second (pack_mod is a power of two covering the second key's domain).
  int64_t pack_mod = 0;
  std::vector<BoundGroupKey> group_by;
  std::vector<BoundAggregate> aggregates;
  std::vector<BoundOutput> outputs;
  std::vector<BoundOrderKey> order_by;
  int64_t limit = -1;
  std::string fact_table;
  /// Chosen join order, probe side first ("lineitem ⟕ orders ⟕ part").
  std::vector<std::string> join_order;
  /// Every costed build order: "orders, part — 123.4 us (chosen)".
  std::vector<std::string> join_candidates;
};

/// Turns a bound query into an annotated logical plan: pushes predicates
/// onto scans, roots the join tree at the fact table, orders build sides by
/// perf-model cost, packs multi-column group keys, and refines estimates
/// with plan::AnnotateSelectivities.
Result<CompiledQuery> PlanQuery(BoundQuery bound, const Catalog& catalog,
                                const PlannerOptions& options = {});

}  // namespace adamant::sql

#endif  // ADAMANT_SQL_PLANNER_H_
