// Unit tests for the device layer: the ten pluggable interface functions and
// the simulated timing semantics (sync vs async, copy/compute overlap,
// WAR hazards, memory accounting, data scaling).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "device/device_manager.h"
#include "device/drivers.h"
#include "device/sim_device.h"
#include "poison_fill.h"
#include "task/kernel_registry.h"

namespace adamant {
namespace {

/// A clean-numbers performance model for timing assertions.
sim::DevicePerfModel TestModel() {
  sim::DevicePerfModel m;
  m.name = "test";
  m.transfer = sim::TransferParams{1.0, 2.0, 1.0, 2.0, /*latency=*/0.0};
  m.kernel_launch_us = 0.0;
  m.per_arg_map_us = 0.0;
  m.host_call_us = 0.0;
  m.alloc_us = 0.0;
  m.free_us = 0.0;
  m.pinned_alloc_us = 0.0;
  m.transform_us = 0.0;
  m.kernel_compile_us = 0.0;
  m.device_memory_bytes = 10 << 20;
  m.pinned_memory_bytes = 10 << 20;
  m.kernels["work"] = sim::KernelCostProfile{1.0, 0, 0, 0};  // 1 tuple/us
  m.default_kernel = sim::KernelCostProfile{1.0, 0, 0, 0};
  return m;
}

HostKernelFn NopKernel() {
  return [](KernelExecContext*) { return Status::OK(); };
}

/// Adds 1 to every int32 in arg 0 (in/out).
HostKernelFn IncrementKernel() {
  return [](KernelExecContext* ctx) {
    auto* data = ctx->ptr_as<int32_t>(0);
    for (size_t i = 0; i < ctx->work_items(); ++i) data[i] += 1;
    return Status::OK();
  };
}

std::unique_ptr<SimulatedDevice> MakeTestDevice(
    std::shared_ptr<SimContext> ctx = std::make_shared<SimContext>(),
    bool requires_compilation = false) {
  auto device = std::make_unique<SimulatedDevice>(
      "test", TestModel(), SdkFormat::kRaw, requires_compilation, ctx);
  device->RegisterPrecompiledKernel("work", NopKernel());
  EXPECT_TRUE(device->Initialize().ok());
  return device;
}

// --- Lifecycle ---

TEST(Device, DoubleInitializeRejected) {
  auto device = MakeTestDevice();
  EXPECT_TRUE(device->Initialize().IsAlreadyExists());
}

TEST(Device, ExecuteBeforeInitializeFails) {
  auto ctx = std::make_shared<SimContext>();
  SimulatedDevice device("d", TestModel(), SdkFormat::kRaw, false, ctx);
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.fn = NopKernel();
  EXPECT_TRUE(device.Execute(launch).IsExecutionError());
}

// --- place_data / retrieve_data ---

TEST(Device, PlaceRetrieveRoundTrip) {
  auto device = MakeTestDevice();
  std::vector<int32_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  auto buf = device->PrepareMemory(data.size() * 4);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(device->PlaceData(*buf, data.data(), data.size() * 4, 0).ok());
  std::vector<int32_t> out(256, -1);
  ASSERT_TRUE(device->RetrieveData(*buf, out.data(), out.size() * 4, 0).ok());
  EXPECT_EQ(out, data);
}

TEST(Device, PlaceRetrieveWithOffsets) {
  PoisonFill poison;
  auto device = MakeTestDevice();
  auto buf = device->PrepareMemory(64);
  ASSERT_TRUE(buf.ok());
  int32_t v = 0xABCD;
  ASSERT_TRUE(device->PlaceData(*buf, &v, 4, 32).ok());
  int32_t got = 0;
  ASSERT_TRUE(device->RetrieveData(*buf, &got, 4, 32).ok());
  EXPECT_EQ(got, 0xABCD);
  // Device memory is uninitialized, not zeroed: bytes nothing wrote read
  // the poison pattern.
  ASSERT_TRUE(device->RetrieveData(*buf, &got, 4, 0).ok());
  EXPECT_EQ(got, PoisonFill::Word());
}

TEST(Device, PlaceOverflowRejected) {
  auto device = MakeTestDevice();
  auto buf = device->PrepareMemory(16);
  ASSERT_TRUE(buf.ok());
  char data[32] = {};
  EXPECT_TRUE(device->PlaceData(*buf, data, 32, 0).IsInvalidArgument());
  EXPECT_TRUE(device->PlaceData(*buf, data, 8, 12).IsInvalidArgument());
  EXPECT_TRUE(device->RetrieveData(*buf, data, 17, 0).IsInvalidArgument());
}

TEST(Device, NullPointersRejected) {
  auto device = MakeTestDevice();
  auto buf = device->PrepareMemory(16);
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(device->PlaceData(*buf, nullptr, 4, 0).IsInvalidArgument());
  EXPECT_TRUE(device->RetrieveData(*buf, nullptr, 4, 0).IsInvalidArgument());
}

TEST(Device, ZeroByteCopiesTouchNoMemory) {
  // As cudaMemcpy with count 0: no pointer is read, so none is required.
  auto device = MakeTestDevice();
  auto empty = device->PrepareMemory(0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(device->PlaceData(*empty, nullptr, 0, 0).ok());
  EXPECT_TRUE(device->RetrieveData(*empty, nullptr, 0, 0).ok());
  EXPECT_TRUE(device->PlaceData(99, nullptr, 0, 0).IsNotFound());
}

TEST(Device, UnknownBufferNotFound) {
  auto device = MakeTestDevice();
  char data[4];
  EXPECT_TRUE(device->PlaceData(99, data, 4, 0).IsNotFound());
  EXPECT_TRUE(device->RetrieveData(99, data, 4, 0).IsNotFound());
  EXPECT_TRUE(device->DeleteMemory(99).IsNotFound());
  EXPECT_TRUE(
      device->TransformMemory(99, SdkFormat::kCudaDevPtr).IsNotFound());
}

// --- prepare_memory / delete_memory / arenas ---

TEST(Device, ArenaAccountsAllocations) {
  auto device = MakeTestDevice();
  auto a = device->PrepareMemory(1 << 20);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(device->device_arena().used(), size_t{1} << 20);
  auto b = device->AddPinnedMemory(1 << 19);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(device->pinned_arena().used(), size_t{1} << 19);
  EXPECT_EQ(device->device_arena().used(), size_t{1} << 20)
      << "pinned memory is a separate pool";
  ASSERT_TRUE(device->DeleteMemory(*a).ok());
  EXPECT_EQ(device->device_arena().used(), 0u);
  ASSERT_TRUE(device->DeleteMemory(*b).ok());
  EXPECT_EQ(device->pinned_arena().used(), 0u);
}

TEST(Device, DeviceOutOfMemory) {
  auto device = MakeTestDevice();
  auto big = device->PrepareMemory(11 << 20);  // capacity is 10 MiB
  EXPECT_TRUE(big.status().IsOutOfMemory());
  // Failed allocation reserves nothing.
  EXPECT_EQ(device->device_arena().used(), 0u);
  EXPECT_TRUE(device->PrepareMemory(5 << 20).ok());
}

TEST(Device, DataScaleInflatesArenaCharges) {
  auto ctx = std::make_shared<SimContext>();
  ctx->data_scale = 1000.0;
  auto device = MakeTestDevice(ctx);
  // 1 KiB actual = 1000 KiB nominal.
  auto buf = device->PrepareMemory(1 << 10);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(device->device_arena().used(), size_t{1024} * 1000);
  // 100 KiB actual = 100 MiB nominal > 10 MiB capacity.
  EXPECT_TRUE(device->PrepareMemory(100 << 10).status().IsOutOfMemory());
}

// --- Storage recycling: blocks at glibc's mmap threshold outlive
//     DeleteMemory as spares of their device ---

constexpr size_t kBlock = SimulatedDevice::kMmapThresholdBytes;

/// A device whose arenas hold several threshold-sized blocks.
std::unique_ptr<SimulatedDevice> MakeRoomyDevice(
    std::shared_ptr<SimContext> ctx = std::make_shared<SimContext>()) {
  sim::DevicePerfModel model = TestModel();
  model.device_memory_bytes = size_t{1} << 30;
  model.pinned_memory_bytes = size_t{1} << 30;
  auto device = std::make_unique<SimulatedDevice>("roomy", model,
                                                  SdkFormat::kRaw, false, ctx);
  EXPECT_TRUE(device->Initialize().ok());
  return device;
}

BufferId Prepare(SimulatedDevice* device, size_t bytes) {
  auto id = device->PrepareMemory(bytes);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? *id : kInvalidBuffer;
}

void* StoragePtr(SimulatedDevice* device, BufferId id) {
  auto ptr = device->DebugBufferPtr(id);
  EXPECT_TRUE(ptr.ok()) << ptr.status().ToString();
  return ptr.ok() ? *ptr : nullptr;
}

TEST(DeviceStorage, DeletedLargeBufferServesTheNextThatFits) {
  PoisonFill poison;
  auto device = MakeRoomyDevice();
  BufferId first = Prepare(device.get(), kBlock);
  void* storage = StoragePtr(device.get(), first);
  const int32_t written = 0x1234;
  ASSERT_TRUE(device->PlaceData(first, &written, 4, 0).ok());
  ASSERT_TRUE(device->DeleteMemory(first).ok());
  EXPECT_EQ(device->large_blocks().spare, kBlock);

  BufferId next = Prepare(device.get(), kBlock - 4096);
  EXPECT_EQ(StoragePtr(device.get(), next), storage);
  EXPECT_EQ(*device->DebugBufferSize(next), kBlock - 4096);
  EXPECT_EQ(device->large_blocks().spare, 0u);
  EXPECT_EQ(device->large_blocks().live, kBlock);
  // Recycled storage is poisoned again, not left with the last query's data.
  int32_t got = 0;
  ASSERT_TRUE(device->RetrieveData(next, &got, 4, 0).ok());
  EXPECT_EQ(got, PoisonFill::Word());
}

TEST(DeviceStorage, RequestUnderHalfASpareLeavesIt) {
  auto device = MakeRoomyDevice();
  BufferId first = Prepare(device.get(), 2 * kBlock);
  void* storage = StoragePtr(device.get(), first);
  ASSERT_TRUE(device->DeleteMemory(first).ok());

  BufferId under_half = Prepare(device.get(), kBlock - 64);
  EXPECT_NE(StoragePtr(device.get(), under_half), storage);
  EXPECT_EQ(device->large_blocks().spare, 2 * kBlock);
  BufferId half = Prepare(device.get(), kBlock);
  EXPECT_EQ(StoragePtr(device.get(), half), storage);
  EXPECT_EQ(device->large_blocks().spare, 0u);
}

TEST(DeviceStorage, SmallBufferStorageIsNotKept) {
  auto device = MakeRoomyDevice();
  BufferId small = Prepare(device.get(), 1 << 20);
  ASSERT_TRUE(device->DeleteMemory(small).ok());
  const SimulatedDevice::LargeBlocks blocks = device->large_blocks();
  EXPECT_EQ(blocks.spare, 0u);
  EXPECT_EQ(blocks.live, 0u);
  EXPECT_EQ(blocks.live_high_water, 0u);
}

TEST(DeviceStorage, LivePlusSpareStaysWithinTheLiveHighWater) {
  auto within_bound = [](const SimulatedDevice& device) {
    const SimulatedDevice::LargeBlocks blocks = device.large_blocks();
    return blocks.live + blocks.spare <= blocks.live_high_water;
  };
  {
    // Two blocks live together: both are kept on delete.
    auto device = MakeRoomyDevice();
    BufferId a = Prepare(device.get(), kBlock);
    BufferId b = Prepare(device.get(), kBlock);
    EXPECT_EQ(device->large_blocks().live_high_water, 2 * kBlock);
    ASSERT_TRUE(device->DeleteMemory(a).ok());
    EXPECT_TRUE(within_bound(*device));
    ASSERT_TRUE(device->DeleteMemory(b).ok());
    EXPECT_TRUE(within_bound(*device));
    EXPECT_EQ(device->large_blocks().spare, 2 * kBlock);
  }
  {
    // Never two live at once: a block the first spare cannot serve frees
    // that spare before it is allocated, so the device never holds both,
    // and only the newer one stays.
    auto device = MakeRoomyDevice();
    ASSERT_TRUE(device->DeleteMemory(Prepare(device.get(), kBlock)).ok());
    EXPECT_EQ(device->large_blocks().spare, kBlock);
    BufferId larger = Prepare(device.get(), kBlock + kBlock / 2);
    EXPECT_TRUE(within_bound(*device));
    EXPECT_EQ(device->large_blocks().spare, 0u);
    ASSERT_TRUE(device->DeleteMemory(larger).ok());
    EXPECT_TRUE(within_bound(*device));
    EXPECT_EQ(device->large_blocks().spare, kBlock + kBlock / 2);
    EXPECT_EQ(device->large_blocks().live_high_water, kBlock + kBlock / 2);
  }
}

TEST(DeviceStorage, DeletingAChunkAliasReturnsNothing) {
  auto device = MakeRoomyDevice();
  BufferId parent = Prepare(device.get(), kBlock);
  auto chunk = device->CreateChunk(parent, kBlock / 2, kBlock / 4);
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(device->DeleteMemory(*chunk).ok());
  EXPECT_EQ(device->large_blocks().spare, 0u);
  EXPECT_EQ(device->large_blocks().live, kBlock);
  ASSERT_TRUE(device->DeleteMemory(parent).ok());
  EXPECT_EQ(device->large_blocks().spare, kBlock);
}

TEST(DeviceStorage, ArenaChargesIgnoreRecycling) {
  // The same nominal buffers twice: once as threshold-sized blocks, which
  // recycle, and once as 1/32 of that at data scale 32, which do not.
  // Every arena reading matches.
  auto scaled_ctx = std::make_shared<SimContext>();
  scaled_ctx->data_scale = 32.0;
  auto recycling = MakeRoomyDevice();
  auto plain = MakeRoomyDevice(scaled_ctx);
  auto run = [](SimulatedDevice* device, size_t unit) {
    std::vector<size_t> readings;
    std::vector<BufferId> ids;
    auto read = [&] {
      for (sim::MemoryArena* arena :
           {&device->device_arena(), &device->pinned_arena()}) {
        readings.push_back(arena->used());
        readings.push_back(arena->high_water());
      }
    };
    auto allocate = [&](bool pinned, size_t units) {
      auto id = pinned ? device->AddPinnedMemory(units * unit)
                       : device->PrepareMemory(units * unit);
      EXPECT_TRUE(id.ok());
      ids.push_back(id.ok() ? *id : kInvalidBuffer);
      read();
    };
    auto release = [&](size_t i) {
      EXPECT_TRUE(device->DeleteMemory(ids[i]).ok());
      read();
    };
    allocate(false, 1);
    allocate(true, 1);
    release(0);
    allocate(false, 1);  // recycles buffer 0's block
    release(1);
    allocate(true, 1);  // recycles buffer 1's block
    release(2);
    release(3);
    allocate(false, 2);  // no spare serves it: both are freed first
    release(4);
    return readings;
  };
  const std::vector<size_t> with = run(recycling.get(), kBlock);
  EXPECT_GT(recycling->large_blocks().spare, 0u);
  const std::vector<size_t> without = run(plain.get(), kBlock / 32);
  EXPECT_EQ(plain->large_blocks().live_high_water, 0u);
  EXPECT_EQ(with, without);
}

// --- transform_memory ---

TEST(Device, TransformChangesFormatWithoutMovingBytes) {
  auto device = MakeTestDevice();
  auto buf = device->PrepareMemory(16);
  ASSERT_TRUE(buf.ok());
  int32_t v = 77;
  ASSERT_TRUE(device->PlaceData(*buf, &v, 4, 0).ok());
  const size_t transfers_before = device->stats().place_data +
                                  device->stats().retrieve_data;
  ASSERT_TRUE(device->TransformMemory(*buf, SdkFormat::kThrustVector).ok());
  ASSERT_TRUE(device->BufferFormat(*buf).ok());
  EXPECT_EQ(*device->BufferFormat(*buf), SdkFormat::kThrustVector);
  EXPECT_EQ(device->stats().place_data + device->stats().retrieve_data,
            transfers_before)
      << "transform must not move data through the host";
  int32_t got = 0;
  ASSERT_TRUE(device->RetrieveData(*buf, &got, 4, 0).ok());
  EXPECT_EQ(got, 77);
}

// --- create_chunk ---

TEST(Device, ChunkAliasesParentRegion) {
  auto device = MakeTestDevice();
  std::vector<int32_t> data = {10, 20, 30, 40};
  auto parent = device->PrepareMemory(16);
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(device->PlaceData(*parent, data.data(), 16, 0).ok());
  auto chunk = device->CreateChunk(*parent, 8, 8);  // elements {30, 40}
  ASSERT_TRUE(chunk.ok());
  int32_t got[2];
  ASSERT_TRUE(device->RetrieveData(*chunk, got, 8, 0).ok());
  EXPECT_EQ(got[0], 30);
  EXPECT_EQ(got[1], 40);
  // Writes through the chunk are visible through the parent.
  int32_t v = 99;
  ASSERT_TRUE(device->PlaceData(*chunk, &v, 4, 0).ok());
  ASSERT_TRUE(device->RetrieveData(*parent, got, 8, 8).ok());
  EXPECT_EQ(got[0], 99);
}

TEST(Device, ChunkBoundsChecked) {
  auto device = MakeTestDevice();
  auto parent = device->PrepareMemory(16);
  ASSERT_TRUE(parent.ok());
  EXPECT_TRUE(device->CreateChunk(*parent, 8, 12).status().IsInvalidArgument());
  EXPECT_TRUE(device->CreateChunk(*parent, 17, 0).status().IsInvalidArgument());
}

TEST(Device, DeletingChunkKeepsParentBytes) {
  auto device = MakeTestDevice();
  auto parent = device->PrepareMemory(1 << 10);
  ASSERT_TRUE(parent.ok());
  const size_t used = device->device_arena().used();
  auto chunk = device->CreateChunk(*parent, 256, 0);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(device->device_arena().used(), used) << "aliases charge nothing";
  ASSERT_TRUE(device->DeleteMemory(*chunk).ok());
  EXPECT_EQ(device->device_arena().used(), used);
}

TEST(Device, NestedChunks) {
  auto device = MakeTestDevice();
  std::vector<int32_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto parent = device->PrepareMemory(32);
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(device->PlaceData(*parent, data.data(), 32, 0).ok());
  auto mid = device->CreateChunk(*parent, 16, 8);    // {3,4,5,6}
  ASSERT_TRUE(mid.ok());
  auto leaf = device->CreateChunk(*mid, 8, 4);       // {4,5}
  ASSERT_TRUE(leaf.ok());
  int32_t got[2];
  ASSERT_TRUE(device->RetrieveData(*leaf, got, 8, 0).ok());
  EXPECT_EQ(got[0], 4);
  EXPECT_EQ(got[1], 5);
}

// --- prepare_kernel / execute ---

TEST(Device, RuntimeCompilationRequired) {
  auto ctx = std::make_shared<SimContext>();
  auto device = MakeTestDevice(ctx, /*requires_compilation=*/true);
  auto buf = device->PrepareMemory(16);
  ASSERT_TRUE(buf.ok());
  KernelLaunch launch;
  launch.kernel_name = "inc";
  launch.work_items = 4;
  launch.args.push_back(KernelArg::InOut(*buf));
  launch.fn = IncrementKernel();
  // Even with an inline fn, the OpenCL-like driver insists the kernel was
  // prepared (compiled) first.
  EXPECT_TRUE(device->Execute(launch).IsExecutionError());
  ASSERT_TRUE(
      device->PrepareKernel("inc", {"__kernel inc", IncrementKernel()}).ok());
  EXPECT_TRUE(device->Execute(launch).ok());
}

TEST(Device, PrecompiledKernelLookup) {
  auto device = MakeTestDevice();
  device->RegisterPrecompiledKernel("inc", IncrementKernel());
  std::vector<int32_t> data = {5, 6};
  auto buf = device->PrepareMemory(8);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(device->PlaceData(*buf, data.data(), 8, 0).ok());
  KernelLaunch launch;
  launch.kernel_name = "inc";
  launch.work_items = 2;
  launch.args.push_back(KernelArg::InOut(*buf));
  ASSERT_TRUE(device->Execute(launch).ok());
  int32_t got[2];
  ASSERT_TRUE(device->RetrieveData(*buf, got, 8, 0).ok());
  EXPECT_EQ(got[0], 6);
  EXPECT_EQ(got[1], 7);
}

TEST(Device, MissingKernelErrors) {
  auto device = MakeTestDevice();
  KernelLaunch launch;
  launch.kernel_name = "no_such";
  EXPECT_TRUE(device->Execute(launch).IsExecutionError());
}

TEST(Device, PrepareKernelWithoutFnRejected) {
  auto device = MakeTestDevice();
  EXPECT_TRUE(device->PrepareKernel("k", {"src", nullptr}).IsInvalidArgument());
}

TEST(Device, HasKernelReflectsBothPaths) {
  auto device = MakeTestDevice();
  EXPECT_TRUE(device->HasKernel("work"));
  EXPECT_FALSE(device->HasKernel("late"));
  ASSERT_TRUE(device->PrepareKernel("late", {"src", NopKernel()}).ok());
  EXPECT_TRUE(device->HasKernel("late"));
}

// --- Simulated timing semantics ---

TEST(DeviceTiming, SyncSerializesEverything) {
  auto device = MakeTestDevice();
  const size_t bytes = 1 << 20;
  const double t_xfer = device->perf_model().TransferDuration(
      bytes, sim::TransferDirection::kHostToDevice, false);
  auto buf = device->PrepareMemory(bytes);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> host(bytes);
  ASSERT_TRUE(device->PlaceData(*buf, host.data(), bytes, 0).ok());
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.work_items = 100;  // 100 us at 1 tuple/us
  launch.args.push_back(KernelArg::In(*buf));
  ASSERT_TRUE(device->Execute(launch).ok());
  EXPECT_NEAR(device->MaxCompletion(), t_xfer + 100.0, 1e-6);
  EXPECT_NEAR(device->host_time(), t_xfer + 100.0, 1e-6)
      << "sync calls block the host";
}

TEST(DeviceTiming, AsyncOverlapsTransferAndCompute) {
  // Ping-pong between two buffers: transfers of chunk i+1 overlap the
  // kernel on chunk i. Async makespan = sync makespan - hidden kernel time.
  auto run = [](bool async) {
    auto device = MakeTestDevice();
    device->SetAsyncMode(async);
    const size_t bytes = 1 << 20;
    std::vector<uint8_t> host(bytes);
    auto a = device->PrepareMemory(bytes);
    auto b = device->PrepareMemory(bytes);
    EXPECT_TRUE(a.ok() && b.ok());
    const BufferId bufs[2] = {*a, *b};
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(
          device->PlaceData(bufs[i % 2], host.data(), bytes, 0).ok());
      KernelLaunch launch;
      launch.kernel_name = "work";
      launch.work_items = 100;
      launch.args.push_back(KernelArg::In(bufs[i % 2]));
      EXPECT_TRUE(device->Execute(launch).ok());
    }
    return device->MaxCompletion();
  };
  const double sync_time = run(false);
  const double async_time = run(true);
  // 3 transfers of ~976.6us dominate; the first two kernels (100us each)
  // hide behind transfers, the last one does not.
  EXPECT_NEAR(sync_time - async_time, 200.0, 1e-6);
}

TEST(DeviceTiming, WriteAfterReadHazardDelaysTransfer) {
  auto device = MakeTestDevice();
  device->SetAsyncMode(true);
  device->SetTimelineTracing(true);
  const size_t bytes = 1 << 20;
  std::vector<uint8_t> host(bytes);
  auto buf = device->PrepareMemory(bytes);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(device->PlaceData(*buf, host.data(), bytes, 0).ok());
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.work_items = 5000;  // long kernel: 5000 us
  launch.args.push_back(KernelArg::In(*buf));
  ASSERT_TRUE(device->Execute(launch).ok());
  // Re-placing into the same buffer must wait for the kernel reading it.
  ASSERT_TRUE(device->PlaceData(*buf, host.data(), bytes, 0).ok());
  const auto& xfers = device->transfer_timeline().trace();
  const auto& kernels = device->compute_timeline().trace();
  ASSERT_EQ(xfers.size(), 2u);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_DOUBLE_EQ(xfers[1].start, kernels[0].end)
      << "WAR: overwrite waits for the reader";
}

TEST(DeviceTiming, ExecuteWaitsForInputTransfer) {
  auto device = MakeTestDevice();
  device->SetAsyncMode(true);
  device->SetTimelineTracing(true);
  const size_t bytes = 1 << 20;
  const double t_xfer = device->perf_model().TransferDuration(
      bytes, sim::TransferDirection::kHostToDevice, false);
  std::vector<uint8_t> host(bytes);
  auto buf = device->PrepareMemory(bytes);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(device->PlaceData(*buf, host.data(), bytes, 0).ok());
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.work_items = 10;
  launch.args.push_back(KernelArg::In(*buf));
  ASSERT_TRUE(device->Execute(launch).ok());
  ASSERT_EQ(device->compute_timeline().trace().size(), 1u);
  EXPECT_NEAR(device->compute_timeline().trace()[0].start, t_xfer, 1e-6)
      << "RAW: kernel waits for its input chunk";
}

TEST(DeviceTiming, PinnedTransfersFaster) {
  auto device = MakeTestDevice();
  const size_t bytes = 1 << 20;
  std::vector<uint8_t> host(bytes);
  auto pageable = device->PrepareMemory(bytes);
  auto pinned = device->AddPinnedMemory(bytes);
  ASSERT_TRUE(pageable.ok() && pinned.ok());
  ASSERT_TRUE(device->PlaceData(*pageable, host.data(), bytes, 0).ok());
  const double t_pageable = device->MaxCompletion();
  device->ResetTimelines();
  ASSERT_TRUE(device->PlaceData(*pinned, host.data(), bytes, 0).ok());
  const double t_pinned = device->MaxCompletion();
  EXPECT_NEAR(t_pageable / t_pinned, 2.0, 1e-6)
      << "test model: pinned bandwidth 2 GiB/s vs pageable 1 GiB/s";
}

TEST(DeviceTiming, DataScaleInflatesDurations) {
  auto scaled_ctx = std::make_shared<SimContext>();
  scaled_ctx->data_scale = 8.0;
  auto scaled = MakeTestDevice(scaled_ctx);
  auto plain = MakeTestDevice();
  const size_t bytes = 1 << 16;
  std::vector<uint8_t> host(bytes);
  auto a = scaled->PrepareMemory(bytes);
  auto b = plain->PrepareMemory(bytes);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(scaled->PlaceData(*a, host.data(), bytes, 0).ok());
  ASSERT_TRUE(plain->PlaceData(*b, host.data(), bytes, 0).ok());
  EXPECT_NEAR(scaled->MaxCompletion() / plain->MaxCompletion(), 8.0, 1e-6);
}

TEST(DeviceTiming, KernelBodyTimeExcludesOverheads) {
  auto model = TestModel();
  model.kernel_launch_us = 50.0;
  model.per_arg_map_us = 5.0;
  auto ctx = std::make_shared<SimContext>();
  SimulatedDevice device("d", model, SdkFormat::kRaw, false, ctx);
  device.RegisterPrecompiledKernel("work", NopKernel());
  ASSERT_TRUE(device.Initialize().ok());
  auto buf = device.PrepareMemory(64);
  ASSERT_TRUE(buf.ok());
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.work_items = 100;
  launch.args.push_back(KernelArg::In(*buf));
  ASSERT_TRUE(device.Execute(launch).ok());
  EXPECT_NEAR(device.kernel_body_time(), 100.0, 1e-9);
  EXPECT_GT(device.compute_timeline().busy_time(), 100.0)
      << "launch overhead occupies the engine but is not body time";
}

TEST(DeviceTiming, ResetTimelinesClearsBufferTimestamps) {
  auto device = MakeTestDevice();
  const size_t bytes = 1 << 20;
  std::vector<uint8_t> host(bytes);
  auto buf = device->PrepareMemory(bytes);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(device->PlaceData(*buf, host.data(), bytes, 0).ok());
  device->ResetTimelines();
  EXPECT_DOUBLE_EQ(device->MaxCompletion(), 0.0);
  // A kernel right after reset starts at t=0 (no stale readiness).
  device->SetTimelineTracing(true);
  KernelLaunch launch;
  launch.kernel_name = "work";
  launch.work_items = 1;
  launch.args.push_back(KernelArg::In(*buf));
  ASSERT_TRUE(device->Execute(launch).ok());
  EXPECT_DOUBLE_EQ(device->compute_timeline().trace()[0].start, 0.0);
}

// --- Call stats ---

TEST(Device, CallStatsCount) {
  auto device = MakeTestDevice();
  auto buf = device->PrepareMemory(64);
  ASSERT_TRUE(buf.ok());
  char data[8] = {};
  ASSERT_TRUE(device->PlaceData(*buf, data, 8, 0).ok());
  ASSERT_TRUE(device->RetrieveData(*buf, data, 8, 0).ok());
  ASSERT_TRUE(device->TransformMemory(*buf, SdkFormat::kOpenClBuffer).ok());
  auto chunk = device->CreateChunk(*buf, 8, 0);
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(device->DeleteMemory(*chunk).ok());
  const DeviceCallStats& stats = device->stats();
  EXPECT_EQ(stats.prepare_memory, 1u);
  EXPECT_EQ(stats.place_data, 1u);
  EXPECT_EQ(stats.retrieve_data, 1u);
  EXPECT_EQ(stats.transform_memory, 1u);
  EXPECT_EQ(stats.create_chunk, 1u);
  EXPECT_EQ(stats.delete_memory, 1u);
  device->ResetStats();
  EXPECT_EQ(device->stats().place_data, 0u);
}

// --- Built-in drivers ---

TEST(Drivers, NativeFormatsAndCompilation) {
  auto ctx = std::make_shared<SimContext>();
  auto opencl =
      MakeDriver(sim::DriverKind::kOpenClGpu, sim::HardwareSetup::kSetup1, ctx);
  EXPECT_EQ(opencl->native_format(), SdkFormat::kOpenClBuffer);
  EXPECT_TRUE(opencl->requires_compilation());
  auto cuda =
      MakeDriver(sim::DriverKind::kCudaGpu, sim::HardwareSetup::kSetup1, ctx);
  EXPECT_EQ(cuda->native_format(), SdkFormat::kCudaDevPtr);
  EXPECT_FALSE(cuda->requires_compilation());
  auto openmp =
      MakeDriver(sim::DriverKind::kOpenMpCpu, sim::HardwareSetup::kSetup1, ctx);
  EXPECT_EQ(openmp->native_format(), SdkFormat::kRaw);
  EXPECT_FALSE(openmp->requires_compilation());
}

TEST(Drivers, BindStandardKernelsCoversTableOne) {
  auto ctx = std::make_shared<SimContext>();
  for (auto kind : {sim::DriverKind::kOpenClGpu, sim::DriverKind::kCudaGpu,
                    sim::DriverKind::kOpenClCpu, sim::DriverKind::kOpenMpCpu}) {
    auto device = MakeDriver(kind, sim::HardwareSetup::kSetup1, ctx);
    ASSERT_TRUE(device->Initialize().ok());
    ASSERT_TRUE(BindStandardKernels(device.get()).ok());
    for (const char* kernel :
         {"map", "filter_bitmap", "filter_position", "materialize",
          "materialize_position", "prefix_sum", "agg_block", "hash_build",
          "hash_probe", "hash_agg", "sort_agg", "fill"}) {
      EXPECT_TRUE(device->HasKernel(kernel))
          << kernel << " on " << sim::DriverKindName(kind);
    }
  }
}

// --- DeviceManager ---

TEST(Manager, AddAndFindDevices) {
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  EXPECT_EQ(manager.num_devices(), 2u);
  EXPECT_TRUE(manager.GetDevice(*gpu).ok());
  EXPECT_TRUE(manager.GetDevice(99).status().IsNotFound());
  ASSERT_TRUE(manager.FindByName("cuda_gpu").ok());
  EXPECT_EQ(*manager.FindByName("cuda_gpu"), *gpu);
  EXPECT_TRUE(manager.FindByName("fpga").status().IsNotFound());
}

TEST(Manager, RejectsDuplicateNames) {
  DeviceManager manager;
  ASSERT_TRUE(manager.AddDriver(sim::DriverKind::kCudaGpu).ok());
  EXPECT_TRUE(
      manager.AddDriver(sim::DriverKind::kCudaGpu).status().IsAlreadyExists());
}

TEST(Manager, MaxCompletionAcrossDevices) {
  DeviceManager manager;
  auto a = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto b = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  ASSERT_TRUE(a.ok() && b.ok());
  manager.ResetAllTimelines();
  std::vector<uint8_t> host(1 << 20);
  auto buf = manager.device(*a)->PrepareMemory(1 << 20);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager.device(*a)->PlaceData(*buf, host.data(), 1 << 20, 0).ok());
  EXPECT_GT(manager.MaxCompletion(), 0.0);
  EXPECT_DOUBLE_EQ(manager.MaxCompletion(),
                   manager.device(*a)->MaxCompletion());
}

}  // namespace
}  // namespace adamant
