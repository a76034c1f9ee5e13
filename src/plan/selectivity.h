#ifndef ADAMANT_PLAN_SELECTIVITY_H_
#define ADAMANT_PLAN_SELECTIVITY_H_

#include "common/result.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace adamant::plan {

/// Sampling-based cardinality estimation: runs the reference interpreter's
/// operator steps over a systematic sample (every `sample_every`-th row) of
/// the tables the plan scans, read in place column at a time (only the
/// columns the plan reads are widened), and rewrites the plan with measured
/// estimates:
///   * each filter predicate's conditional selectivity,
///   * each join's output fraction of its probe input,
///   * each GroupBy's expected group count (when the plan left it at 0).
/// Cost grows with the sampled rows of the scanned tables, not with the
/// catalog.
///
/// The result is a new tree (logical nodes are immutable); the original is
/// untouched. Estimates are clamped away from 0 and padded by the lowering
/// pass's safety margin downstream, so a sampling miss costs buffer
/// capacity rather than a query failure.
Result<LogicalNodePtr> AnnotateSelectivities(const LogicalNode& root,
                                             const Catalog& catalog,
                                             size_t sample_every = 7);

}  // namespace adamant::plan

#endif  // ADAMANT_PLAN_SELECTIVITY_H_
