#ifndef ADAMANT_DEVICE_KERNEL_LAUNCH_H_
#define ADAMANT_DEVICE_KERNEL_LAUNCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "device/buffer.h"

namespace adamant {

class CancelToken;

/// One argument of a kernel launch: a device buffer (tagged by access mode
/// so the simulator can derive data dependencies) or an immediate scalar.
struct KernelArg {
  enum class Kind : uint8_t {
    kBufferIn,
    kBufferOut,
    kBufferInOut,
    kScalarI64,
    kScalarF64,
  };

  Kind kind;
  BufferId buffer = kInvalidBuffer;
  int64_t i64 = 0;
  double f64 = 0.0;

  static KernelArg In(BufferId id) { return {Kind::kBufferIn, id, 0, 0.0}; }
  static KernelArg Out(BufferId id) { return {Kind::kBufferOut, id, 0, 0.0}; }
  static KernelArg InOut(BufferId id) {
    return {Kind::kBufferInOut, id, 0, 0.0};
  }
  static KernelArg Scalar(int64_t v) {
    return {Kind::kScalarI64, kInvalidBuffer, v, 0.0};
  }
  static KernelArg ScalarF(double v) {
    return {Kind::kScalarF64, kInvalidBuffer, 0, v};
  }

  bool is_buffer() const { return kind != Kind::kScalarI64 && kind != Kind::kScalarF64; }
  bool reads_buffer() const {
    return kind == Kind::kBufferIn || kind == Kind::kBufferInOut;
  }
  bool writes_buffer() const {
    return kind == Kind::kBufferOut || kind == Kind::kBufferInOut;
  }
};

/// View the device hands to a host kernel function: buffer args resolved to
/// raw pointers plus the scalar arguments, in launch order.
class KernelExecContext {
 public:
  KernelExecContext(std::vector<void*> pointers, std::vector<size_t> sizes,
                    std::vector<KernelArg> args, size_t work_items)
      : pointers_(std::move(pointers)),
        sizes_(std::move(sizes)),
        args_(std::move(args)),
        work_items_(work_items) {}

  size_t num_args() const { return args_.size(); }
  size_t work_items() const { return work_items_; }

  /// Raw pointer of buffer argument i (null for scalar args).
  void* ptr(size_t i) const { return pointers_[i]; }
  template <typename T>
  T* ptr_as(size_t i) const {
    return static_cast<T*>(pointers_[i]);
  }
  /// Byte size of buffer argument i.
  size_t arg_bytes(size_t i) const { return sizes_[i]; }

  int64_t scalar(size_t i) const { return args_[i].i64; }
  double scalar_f(size_t i) const { return args_[i].f64; }

  /// Thread budget of the launch: the maximum number of threads (pool
  /// workers + the calling thread) the kernel may use. <= 1 means run
  /// single-threaded.
  int parallel_threads() const { return parallel_threads_; }
  void set_parallel_threads(int threads) { parallel_threads_ = threads; }

  /// Set by a kernel that ran the launch as two or more tiles on the
  /// worker pool; the device counts these launches (parallel_launches).
  bool tiled() const { return tiled_; }
  void set_tiled() { tiled_ = true; }

  /// Cooperative cancellation token for the owning run, or null. Tiled
  /// runs poll it between tiles so a cancelled run stops claiming work
  /// instead of finishing the kernel.
  CancelToken* cancel() const { return cancel_; }
  void set_cancel(CancelToken* token) { cancel_ = token; }

 private:
  std::vector<void*> pointers_;
  std::vector<size_t> sizes_;
  std::vector<KernelArg> args_;
  size_t work_items_;
  int parallel_threads_ = 0;
  bool tiled_ = false;
  CancelToken* cancel_ = nullptr;
};

/// Functional implementation of a kernel, executed on the host against the
/// (host-backed) device buffers. This is the simulation stand-in for a real
/// __global__ / __kernel function; the device charges simulated time from
/// its cost model around the call.
using HostKernelFn = std::function<Status(KernelExecContext*)>;

/// Source handed to prepare_kernel(). For SDKs with runtime compilation
/// (OpenCL) `source_text` models the kernel string that would be compiled;
/// `fn` is the behavioural implementation bound to the compiled binary.
struct KernelSource {
  std::string source_text;
  HostKernelFn fn;
};

/// A full kernel invocation request, the payload of Device::Execute().
struct KernelLaunch {
  /// Name used both to find the prepared kernel and to look up the cost
  /// profile in the device's performance model.
  std::string kernel_name;
  std::vector<KernelArg> args;
  /// Number of tuples the launch processes (drives the cost model).
  size_t work_items = 0;
  /// Secondary cost-model input, e.g. the number of distinct groups for
  /// hash aggregation (atomic contention grows with it).
  double cost_param = 1.0;
  /// True when cost_param is data-dependent and should be multiplied by the
  /// benchmark's data-scale factor (e.g. hash-table cardinalities), false
  /// for fixed parameters (e.g. the 5 TPC-H order priorities).
  bool scale_cost_param = false;
  /// Single-kernel bodies the launch does per tuple, each charged at the
  /// kernel's calibrated rate: an N-accumulator HASH_AGG makes N atomic
  /// updates per tuple where Fig. 9c calibrates one.
  int bodies = 1;
  /// Thread budget of the launch: 0 takes the device's own budget, N >= 1
  /// lets a kernel that tiles split its launch across N threads. Kernels
  /// that do not tile run on one thread. Ignored when `fn` is set.
  int num_threads = 0;
  /// Cooperative cancellation token for the owning run; not owned, may be
  /// null. Stamped by the executor from ExecutionOptions so tile loops can
  /// stop early on cancel/deadline.
  CancelToken* cancel = nullptr;
  /// Inline implementation; if empty, the kernel registered under
  /// kernel_name via prepare_kernel()/RegisterPrecompiledKernel() is used.
  HostKernelFn fn;
};

}  // namespace adamant

#endif  // ADAMANT_DEVICE_KERNEL_LAUNCH_H_
