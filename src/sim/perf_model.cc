#include "sim/perf_model.h"

#include <cmath>

namespace adamant::sim {

SimTime KernelCostProfile::Duration(double tuples, double cost_param) const {
  double rate = tuples_per_us;
  if (contention_alpha > 0 && cost_param > 1) {
    rate /= 1.0 + contention_alpha * std::log2(cost_param);
  }
  constexpr double kMegaTuple = 1024.0 * 1024.0;
  if (size_alpha > 0 && tuples > kMegaTuple) {
    rate /= 1.0 + size_alpha * std::log2(tuples / kMegaTuple);
  }
  return fixed_us + tuples / rate;
}

double ParallelKernelSpeedup(int threads, double tuples) {
  if (threads <= 1 || tuples < kParallelSpeedupMinTuples) return 1.0;
  return static_cast<double>(threads) /
         (1.0 + kParallelOverheadAlpha * static_cast<double>(threads - 1));
}

const KernelCostProfile& DevicePerfModel::Profile(
    std::string_view kernel_name) const {
  auto it = kernels.find(kernel_name);
  return it == kernels.end() ? default_kernel : it->second;
}

SimTime DevicePerfModel::TransferDuration(double bytes, TransferDirection dir,
                                          bool pinned) const {
  return TransferUs(bytes, transfer.Bandwidth(dir, pinned));
}

SimTime DevicePerfModel::KernelDuration(std::string_view kernel_name,
                                        double tuples,
                                        double cost_param) const {
  return Profile(kernel_name).Duration(tuples, cost_param);
}

}  // namespace adamant::sim
