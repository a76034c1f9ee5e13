#ifndef ADAMANT_TASK_KERNEL_REGISTRY_H_
#define ADAMANT_TASK_KERNEL_REGISTRY_H_

#include "common/status.h"
#include "device/sim_device.h"

namespace adamant {

/// Default thread budget of the parallel variant on parallel-native
/// (CPU) drivers. A deterministic policy constant — never derived from the
/// host's core count, so simulated timings are machine-independent.
inline constexpr int kDefaultKernelThreads = 4;

/// Installs the standard Table-I kernel library on a device. On drivers with
/// runtime compilation (OpenCL) every kernel goes through prepare_kernel —
/// ADAMANT compiles all pre-existing kernels during initialization, paying
/// the compile cost once; on CUDA/OpenMP drivers kernels are registered as
/// precompiled binaries.
///
/// Also sets the device's variant policy: the kernels that tile
/// (kernels::KernelTiles), and the native variant — CPU drivers
/// (openmp_cpu/opencl_cpu) are parallel-native with kDefaultKernelThreads
/// threads, GPU drivers scalar-native. See SetKernelVariantPolicy for the
/// timing semantics.
Status BindStandardKernels(SimulatedDevice* device);

}  // namespace adamant

#endif  // ADAMANT_TASK_KERNEL_REGISTRY_H_
