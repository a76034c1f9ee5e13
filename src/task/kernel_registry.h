#ifndef ADAMANT_TASK_KERNEL_REGISTRY_H_
#define ADAMANT_TASK_KERNEL_REGISTRY_H_

#include "common/status.h"
#include "device/sim_device.h"

namespace adamant {

/// Own thread budget of the CPU drivers. A deterministic constant — never
/// derived from the host's core count, so simulated timings are
/// machine-independent.
inline constexpr int kDefaultKernelThreads = 4;

/// Installs the standard Table-I kernel library on a device. On drivers with
/// runtime compilation (OpenCL) every kernel goes through prepare_kernel —
/// ADAMANT compiles all pre-existing kernels during initialization, paying
/// the compile cost once; on CUDA/OpenMP drivers kernels are registered as
/// precompiled binaries.
///
/// Also sets the device's own thread budget and the kernels that tile
/// (kernels::KernelTiles): CPU drivers (openmp_cpu/opencl_cpu) own
/// kDefaultKernelThreads threads, GPU drivers one. See SetKernelThreads for
/// the timing semantics.
Status BindStandardKernels(SimulatedDevice* device);

}  // namespace adamant

#endif  // ADAMANT_TASK_KERNEL_REGISTRY_H_
