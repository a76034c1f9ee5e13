#include "task/kernel_registry.h"

#include <set>
#include <string>
#include <string_view>

#include "task/kernels.h"

namespace adamant {
namespace {

/// CPU drivers own several threads: the paper's OpenMP (and OpenCL-on-CPU)
/// kernels are multi-threaded, and the calibrated rates in presets.cc
/// describe exactly those. GPU drivers own one — their host-side thread
/// count cannot change device time.
bool IsCpuDriver(std::string_view perf_model_name) {
  return perf_model_name.substr(0, 10) == "openmp_cpu" ||
         perf_model_name.substr(0, 10) == "opencl_cpu";
}

}  // namespace

Status BindStandardKernels(SimulatedDevice* device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  std::set<std::string, std::less<>> tiled;
  for (const std::string& name : kernels::AllKernelNames()) {
    HostKernelFn fn = kernels::GetKernelFn(name);
    if (device->requires_compilation()) {
      KernelSource source{kernels::KernelSourceText(name), std::move(fn)};
      ADAMANT_RETURN_NOT_OK(device->PrepareKernel(name, source));
    } else {
      device->RegisterPrecompiledKernel(name, std::move(fn));
    }
    if (kernels::KernelTiles(name)) tiled.insert(name);
  }
  device->SetKernelThreads(
      IsCpuDriver(device->perf_model().name) ? kDefaultKernelThreads : 1,
      std::move(tiled));
  return Status::OK();
}

}  // namespace adamant
