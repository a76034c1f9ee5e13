#ifndef ADAMANT_SIM_PERF_MODEL_H_
#define ADAMANT_SIM_PERF_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/sim_time.h"

namespace adamant::sim {

/// Cost profile of one kernel on one device driver. Time for an invocation:
///
///   fixed_us + tuples / rate
///
/// where the base rate degrades multiplicatively with
///   * contention (e.g. atomic inserts into a shared hash table: rate /=
///     1 + contention_alpha * log2(cost_param)), and
///   * data size (e.g. repeated insertion calls on large inputs: rate /=
///     1 + size_alpha * log2(tuples / 2^20) for tuples > 2^20),
/// matching the qualitative curves of Fig. 9 in the paper.
struct KernelCostProfile {
  double tuples_per_us = 1000.0;
  double fixed_us = 0.0;
  double contention_alpha = 0.0;
  double size_alpha = 0.0;

  SimTime Duration(double tuples, double cost_param) const;
};

enum class TransferDirection { kHostToDevice, kDeviceToHost };

/// Modeled throughput scaling of a tiled multi-threaded (worker-pool) kernel
/// variant relative to the single-threaded scalar reference on the same CPU:
///
///   S(t, n) = t / (1 + kParallelOverheadAlpha * (t - 1))   for n >= threshold
///   S(t, n) = 1                                            below the threshold
///
/// The sub-linear term models tile dispatch, cache sharing and the serial
/// tail; the threshold models a kernel running a launch as one range when
/// it holds too few tiles to amortize the fork.
/// Calibrated CPU kernel rates (presets.cc) correspond to the driver's
/// *default* variant — the paper's OpenMP implementation is multi-threaded —
/// so a device charges KernelDuration scaled by S(native)/S(used).
inline constexpr double kParallelOverheadAlpha = 0.10;
inline constexpr double kParallelSpeedupMinTuples = 32768;
double ParallelKernelSpeedup(int threads, double tuples);

/// PCIe (or memory-bus) transfer characteristics of a device driver.
struct TransferParams {
  double h2d_pageable_gibps = 6.0;
  double h2d_pinned_gibps = 12.0;
  double d2h_pageable_gibps = 6.0;
  double d2h_pinned_gibps = 12.0;
  /// Fixed per-call cost (driver call + DMA setup).
  double latency_us = 10.0;

  double Bandwidth(TransferDirection dir, bool pinned) const {
    if (dir == TransferDirection::kHostToDevice) {
      return pinned ? h2d_pinned_gibps : h2d_pageable_gibps;
    }
    return pinned ? d2h_pinned_gibps : d2h_pageable_gibps;
  }
};

/// Complete performance model of one (device, SDK) driver. Calibration
/// rationale lives in presets.cc; the model only knows how to turn byte and
/// tuple counts into simulated durations.
struct DevicePerfModel {
  std::string name;
  TransferParams transfer;

  /// Per-kernel-launch overhead of the SDK (CUDA ~5us; OpenCL higher).
  double kernel_launch_us = 5.0;
  /// Per-kernel-argument cost of explicit data mapping. This is the OpenCL
  /// overhead the paper measures in Fig. 10; ~0 for CUDA/OpenMP.
  double per_arg_map_us = 0.0;
  /// Host-side framework bookkeeping charged per device-interface call.
  double host_call_us = 0.5;
  double alloc_us = 5.0;
  double free_us = 3.0;
  double pinned_alloc_us = 50.0;
  /// transform_memory: metadata-only SDK-format conversion.
  double transform_us = 2.0;
  /// prepare_kernel cost; nonzero only for SDKs with runtime compilation.
  double kernel_compile_us = 0.0;

  size_t device_memory_bytes = size_t{8} << 30;
  size_t pinned_memory_bytes = size_t{4} << 30;

  std::map<std::string, KernelCostProfile, std::less<>> kernels;
  KernelCostProfile default_kernel;

  /// Profile for `kernel_name`, falling back to default_kernel.
  const KernelCostProfile& Profile(std::string_view kernel_name) const;

  /// Pure wire time for `bytes` (latency excluded; charged per call by the
  /// device so that chunk granularity shows up in the schedule).
  SimTime TransferDuration(double bytes, TransferDirection dir,
                           bool pinned) const;

  /// Kernel body time (launch overhead and arg mapping excluded).
  SimTime KernelDuration(std::string_view kernel_name, double tuples,
                         double cost_param) const;
};

}  // namespace adamant::sim

#endif  // ADAMANT_SIM_PERF_MODEL_H_
