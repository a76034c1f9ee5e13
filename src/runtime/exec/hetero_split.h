#ifndef ADAMANT_RUNTIME_EXEC_HETERO_SPLIT_H_
#define ADAMANT_RUNTIME_EXEC_HETERO_SPLIT_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/exec/graph_price.h"

namespace adamant::exec {

/// Normalized split shares (sum 1) proportional to each device's priced
/// throughput (GraphPrice::throughput, prices parallel to the device set).
std::vector<double> ThroughputWeights(const std::vector<GraphPrice>& prices);

/// Normalizes `weights` to `n` positive shares summing to 1. Empty, wrongly
/// sized, non-finite or non-positive input collapses to the even split —
/// the caller never has to special-case a degenerate prediction.
std::vector<double> NormalizeSplit(std::vector<double> weights, size_t n);

/// Contiguous weighted split of [0, total) chunks: partition i receives a
/// share of chunks proportional to weights[i], rounded by largest
/// remainder, ranges in partition order. Deterministic; with even weights
/// it reproduces the historical even SplitChunks exactly (earlier
/// partitions take the remainder).
std::vector<std::pair<size_t, size_t>> SplitChunksWeighted(
    size_t total, const std::vector<double>& weights);

}  // namespace adamant::exec

#endif  // ADAMANT_RUNTIME_EXEC_HETERO_SPLIT_H_
