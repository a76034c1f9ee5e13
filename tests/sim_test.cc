// Unit tests for the event-timeline simulator and performance models.

#include <gtest/gtest.h>

#include "sim/memory_arena.h"
#include "sim/perf_model.h"
#include "sim/presets.h"
#include "sim/sim_time.h"
#include "sim/timeline.h"

namespace adamant::sim {
namespace {

// --- SimTime helpers ---

TEST(SimTime, UnitConversions) {
  EXPECT_DOUBLE_EQ(UsFromMs(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(UsFromSec(2.0), 2e6);
  EXPECT_DOUBLE_EQ(MsFromUs(2500.0), 2.5);
  EXPECT_DOUBLE_EQ(SecFromUs(1e6), 1.0);
}

TEST(SimTime, TransferUsMatchesBandwidth) {
  // 1 GiB at 1 GiB/s = 1 second.
  EXPECT_NEAR(TransferUs(1024.0 * 1024 * 1024, 1.0), 1e6, 1e-6);
  // 12 GiB/s halves vs 6 GiB/s.
  EXPECT_NEAR(TransferUs(1 << 20, 6.0) / TransferUs(1 << 20, 12.0), 2.0, 1e-9);
}

// --- ResourceTimeline ---

TEST(Timeline, FifoBackToBack) {
  ResourceTimeline tl;
  auto a = tl.Schedule(0, 10);
  auto b = tl.Schedule(0, 5);
  EXPECT_DOUBLE_EQ(a.start, 0);
  EXPECT_DOUBLE_EQ(a.end, 10);
  EXPECT_DOUBLE_EQ(b.start, 10) << "resource busy until first op ends";
  EXPECT_DOUBLE_EQ(b.end, 15);
  EXPECT_DOUBLE_EQ(tl.available_at(), 15);
  EXPECT_DOUBLE_EQ(tl.busy_time(), 15);
  EXPECT_EQ(tl.op_count(), 2u);
}

TEST(Timeline, EarliestStartDelays) {
  ResourceTimeline tl;
  auto a = tl.Schedule(100, 10);
  EXPECT_DOUBLE_EQ(a.start, 100);
  EXPECT_DOUBLE_EQ(a.end, 110);
  // Idle gap is not busy time.
  EXPECT_DOUBLE_EQ(tl.busy_time(), 10);
}

TEST(Timeline, DependencyBeforeResourceFree) {
  ResourceTimeline tl;
  tl.Schedule(0, 50);
  auto b = tl.Schedule(10, 5);
  EXPECT_DOUBLE_EQ(b.start, 50) << "resource availability dominates";
}

TEST(Timeline, ResetClears) {
  ResourceTimeline tl;
  tl.Schedule(0, 10);
  tl.Reset();
  EXPECT_DOUBLE_EQ(tl.available_at(), 0);
  EXPECT_DOUBLE_EQ(tl.busy_time(), 0);
  EXPECT_EQ(tl.op_count(), 0u);
}

TEST(Timeline, TracingRecordsLabels) {
  ResourceTimeline tl;
  tl.set_tracing(true);
  tl.Schedule(0, 10, "h2d");
  tl.Schedule(0, 5, "kernel");
  ASSERT_EQ(tl.trace().size(), 2u);
  EXPECT_EQ(tl.trace()[0].label, "h2d");
  EXPECT_EQ(tl.trace()[1].label, "kernel");
}

TEST(Timeline, TracingOffByDefault) {
  ResourceTimeline tl;
  tl.Schedule(0, 10, "x");
  EXPECT_TRUE(tl.trace().empty());
}

// --- KernelCostProfile ---

TEST(PerfModel, BaseRateLinear) {
  KernelCostProfile p{1000.0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(p.Duration(1e6, 1), 1000.0);
  EXPECT_DOUBLE_EQ(p.Duration(2e6, 1), 2000.0);
}

TEST(PerfModel, FixedCostAdds) {
  KernelCostProfile p{1000.0, 50.0, 0, 0};
  EXPECT_DOUBLE_EQ(p.Duration(0, 1), 50.0);
}

TEST(PerfModel, ContentionMonotonicInGroups) {
  KernelCostProfile p{1000.0, 0, 0.5, 0};
  double prev = p.Duration(1e6, 1);
  for (double groups = 16; groups <= 1 << 24; groups *= 16) {
    double cur = p.Duration(1e6, groups);
    EXPECT_GT(cur, prev) << "more groups, more atomic contention";
    prev = cur;
  }
}

TEST(PerfModel, SizeDegradationKicksInAboveMegatuple) {
  KernelCostProfile p{1000.0, 0, 0, 0.3};
  const double below = p.Duration(1 << 20, 1) / (1 << 20);
  const double above = p.Duration(1 << 26, 1) / (1 << 26);
  EXPECT_GT(above, below) << "per-tuple cost grows with data size";
}

TEST(PerfModel, TransferDirectionAndPinning) {
  DevicePerfModel m;
  m.transfer = TransferParams{6.0, 12.0, 5.0, 10.0, 10.0};
  double pageable =
      m.TransferDuration(1 << 30, TransferDirection::kHostToDevice, false);
  double pinned =
      m.TransferDuration(1 << 30, TransferDirection::kHostToDevice, true);
  EXPECT_NEAR(pageable / pinned, 2.0, 1e-9);
  double d2h =
      m.TransferDuration(1 << 30, TransferDirection::kDeviceToHost, false);
  EXPECT_GT(d2h, pageable) << "5 GiB/s slower than 6 GiB/s";
}

TEST(PerfModel, UnknownKernelFallsBackToDefault) {
  DevicePerfModel m;
  m.default_kernel = KernelCostProfile{123.0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(m.Profile("no_such_kernel").tuples_per_us, 123.0);
}

// --- MemoryArena ---

TEST(Arena, AllocateFreeAccounting) {
  MemoryArena arena("a", 1000);
  ASSERT_TRUE(arena.Allocate(400).ok());
  EXPECT_EQ(arena.used(), 400u);
  EXPECT_EQ(arena.available(), 600u);
  ASSERT_TRUE(arena.Allocate(600).ok());
  EXPECT_EQ(arena.available(), 0u);
  arena.Free(400);
  EXPECT_EQ(arena.used(), 600u);
  EXPECT_EQ(arena.high_water(), 1000u);
}

TEST(Arena, OutOfMemoryLeavesStateUnchanged) {
  MemoryArena arena("a", 100);
  ASSERT_TRUE(arena.Allocate(60).ok());
  Status st = arena.Allocate(41);
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_EQ(arena.used(), 60u) << "failed allocation reserves nothing";
}

TEST(Arena, HighWaterResets) {
  MemoryArena arena("a", 100);
  ASSERT_TRUE(arena.Allocate(80).ok());
  arena.Free(80);
  EXPECT_EQ(arena.high_water(), 80u);
  arena.ResetHighWater();
  EXPECT_EQ(arena.high_water(), 0u);
}

// --- Presets (Table II) ---

TEST(Presets, NamesAndClassification) {
  EXPECT_STREQ(DriverKindName(DriverKind::kCudaGpu), "cuda_gpu");
  EXPECT_TRUE(IsGpuDriver(DriverKind::kOpenClGpu));
  EXPECT_TRUE(IsGpuDriver(DriverKind::kCudaGpu));
  EXPECT_FALSE(IsGpuDriver(DriverKind::kOpenClCpu));
  EXPECT_FALSE(IsGpuDriver(DriverKind::kOpenMpCpu));
}

TEST(Presets, Fig3CudaBandwidthAboveOpenCl) {
  for (auto setup : {HardwareSetup::kSetup1, HardwareSetup::kSetup2}) {
    auto cuda = MakePerfModel(DriverKind::kCudaGpu, setup);
    auto opencl = MakePerfModel(DriverKind::kOpenClGpu, setup);
    EXPECT_GT(cuda.transfer.h2d_pageable_gibps,
              opencl.transfer.h2d_pageable_gibps);
    EXPECT_GT(cuda.transfer.h2d_pinned_gibps,
              opencl.transfer.h2d_pinned_gibps);
    EXPECT_GT(cuda.transfer.d2h_pinned_gibps, cuda.transfer.d2h_pageable_gibps)
        << "pinned beats pageable";
  }
}

TEST(Presets, Setup2FasterThanSetup1) {
  auto s1 = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1);
  auto s2 = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup2);
  EXPECT_GT(s2.transfer.h2d_pinned_gibps, s1.transfer.h2d_pinned_gibps)
      << "PCIe 4.0 vs 3.0";
  EXPECT_GT(s2.Profile("map").tuples_per_us, s1.Profile("map").tuples_per_us)
      << "A100 vs 2080 Ti";
  EXPECT_GT(s2.device_memory_bytes, s1.device_memory_bytes);
}

TEST(Presets, Fig10OpenClMappingOverheadLargest) {
  auto opencl = MakePerfModel(DriverKind::kOpenClGpu, HardwareSetup::kSetup1);
  auto cuda = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1);
  auto openmp = MakePerfModel(DriverKind::kOpenMpCpu, HardwareSetup::kSetup1);
  EXPECT_GT(opencl.per_arg_map_us, cuda.per_arg_map_us);
  EXPECT_GT(opencl.per_arg_map_us, openmp.per_arg_map_us);
  EXPECT_GT(opencl.kernel_launch_us, cuda.kernel_launch_us);
}

TEST(Presets, OnlyOpenClCompilesAtRuntime) {
  EXPECT_GT(MakePerfModel(DriverKind::kOpenClGpu, HardwareSetup::kSetup1)
                .kernel_compile_us,
            0);
  EXPECT_GT(MakePerfModel(DriverKind::kOpenClCpu, HardwareSetup::kSetup1)
                .kernel_compile_us,
            0);
  EXPECT_EQ(MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1)
                .kernel_compile_us,
            0);
  EXPECT_EQ(MakePerfModel(DriverKind::kOpenMpCpu, HardwareSetup::kSetup1)
                .kernel_compile_us,
            0);
}

TEST(Presets, Fig9aCpuOpenClBeatsOpenMpOnStreaming) {
  auto opencl = MakePerfModel(DriverKind::kOpenClCpu, HardwareSetup::kSetup1);
  auto openmp = MakePerfModel(DriverKind::kOpenMpCpu, HardwareSetup::kSetup1);
  EXPECT_GT(opencl.Profile("filter_bitmap").tuples_per_us,
            openmp.Profile("filter_bitmap").tuples_per_us);
}

TEST(Presets, Fig9bMaterializePenaltyGpuLarge) {
  auto gpu = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1);
  auto cpu = MakePerfModel(DriverKind::kOpenMpCpu, HardwareSetup::kSetup1);
  const double gpu_ratio = gpu.Profile("materialize").tuples_per_us /
                           gpu.Profile("filter_bitmap").tuples_per_us;
  const double cpu_ratio = cpu.Profile("materialize").tuples_per_us /
                           cpu.Profile("filter_bitmap").tuples_per_us;
  EXPECT_LT(gpu_ratio, 0.55) << "cooperative bitmap extraction hurts GPUs";
  EXPECT_GT(cpu_ratio, 0.6) << "CPUs barely affected";
}

TEST(Presets, Fig9cOpenClHashAggContentionSteeper) {
  auto opencl = MakePerfModel(DriverKind::kOpenClGpu, HardwareSetup::kSetup1);
  auto cuda = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1);
  EXPECT_GT(opencl.Profile("hash_agg").contention_alpha,
            cuda.Profile("hash_agg").contention_alpha * 4);
}

TEST(Presets, Fig9eCudaProbeBelowOpenClProbe) {
  auto opencl = MakePerfModel(DriverKind::kOpenClGpu, HardwareSetup::kSetup1);
  auto cuda = MakePerfModel(DriverKind::kCudaGpu, HardwareSetup::kSetup1);
  EXPECT_LT(cuda.Profile("hash_probe").tuples_per_us,
            opencl.Profile("hash_probe").tuples_per_us);
}

TEST(Presets, CpuDevicesHaveNoPinnedAdvantage) {
  auto cpu = MakePerfModel(DriverKind::kOpenMpCpu, HardwareSetup::kSetup1);
  EXPECT_DOUBLE_EQ(cpu.transfer.h2d_pageable_gibps,
                   cpu.transfer.h2d_pinned_gibps);
}

}  // namespace
}  // namespace adamant::sim
