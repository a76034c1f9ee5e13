#include "runtime/exec/hetero_split.h"

#include <algorithm>
#include <cmath>

namespace adamant::exec {

std::vector<double> ThroughputWeights(const std::vector<GraphPrice>& prices) {
  std::vector<double> weights;
  weights.reserve(prices.size());
  for (const GraphPrice& price : prices) weights.push_back(price.throughput());
  return NormalizeSplit(std::move(weights), prices.size());
}

std::vector<double> NormalizeSplit(std::vector<double> weights, size_t n) {
  bool valid = weights.size() == n && n > 0;
  double sum = 0;
  for (double w : weights) {
    if (!std::isfinite(w) || w <= 0) {
      valid = false;
      break;
    }
    sum += w;
  }
  if (!valid || sum <= 0) {
    return std::vector<double>(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  }
  for (double& w : weights) w /= sum;
  return weights;
}

std::vector<std::pair<size_t, size_t>> SplitChunksWeighted(
    size_t total, const std::vector<double>& weights) {
  const size_t n = weights.size();
  const std::vector<double> shares = NormalizeSplit(weights, n);
  // Largest remainder: floor every quota, then hand the leftover chunks to
  // the largest fractional parts (ties to earlier partitions, which keeps
  // the even-weight case identical to the historical even split).
  std::vector<size_t> counts(n, 0);
  std::vector<std::pair<double, size_t>> remainders;  // (-frac, index)
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double quota = static_cast<double>(total) * shares[i];
    counts[i] = static_cast<size_t>(quota);
    assigned += counts[i];
    remainders.emplace_back(-(quota - std::floor(quota)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t k = 0; assigned < total; ++k) {
    ++counts[remainders[k % n].second];
    ++assigned;
  }
  std::vector<std::pair<size_t, size_t>> ranges(n);
  size_t begin = 0;
  for (size_t i = 0; i < n; ++i) {
    ranges[i] = {begin, begin + counts[i]};
    begin += counts[i];
  }
  return ranges;
}

}  // namespace adamant::exec
