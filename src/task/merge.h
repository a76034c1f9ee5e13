#ifndef ADAMANT_TASK_MERGE_H_
#define ADAMANT_TASK_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "task/primitive.h"

namespace adamant {

/// Host-side merge operations for pipeline-breaker containers, used by the
/// device-parallel execution model: each partition device produces a full
/// breaker container over its chunk sub-range, and these ops combine the
/// partials into the container a single-device run would have produced
/// (up to hash-table slot layout, which result extraction normalizes by
/// sorting).

/// Combines two *partial aggregates* of the same AGG_BLOCK. Unlike the
/// kernel-side per-row accumulate (where COUNT adds 1 per element), both
/// sides here are already aggregates: COUNT and SUM add, MIN/MAX fold.
int64_t MergeAggPartials(AggOp op, int64_t a, int64_t b);

/// Merges a partial HASH_AGG table into `dst`: both hold `num_slots` slots
/// of ops.size() accumulators (HashTableLayout), accumulator a folding with
/// ops[a]. Every non-empty partial group is re-inserted with linear
/// probing: a matching key folds each accumulator via MergeAggPartials, an
/// empty slot takes a copy of the whole slot. Errors if `dst` overflows
/// (cannot happen when both tables were sized for the total expected
/// groups).
Status MergeAggTables(const std::vector<AggOp>& ops, const uint8_t* partial,
                      size_t num_slots, uint8_t* dst);

/// Merges a partial HASH_BUILD table into `dst` (both `num_slots` slots of
/// HashTableLayout::BuildSlot). Entry union preserving duplicates — every
/// non-empty partial entry claims its own slot in `dst`, exactly as if its
/// row had been inserted by the build kernel. Payloads are global row
/// indices (the build kernel offsets by the chunk base row), so the union
/// equals the single-device table's entry set.
Status MergeBuildTables(const uint8_t* partial, size_t num_slots,
                        uint8_t* dst);

}  // namespace adamant

#endif  // ADAMANT_TASK_MERGE_H_
