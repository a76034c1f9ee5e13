// Unit tests for the execution models' run loop (src/runtime/exec/): the
// ChunkSource arithmetic every model shares, every model's name and
// traits, the host-side breaker merge helpers, and device-parallel edge
// cases (single device, fewer chunks than devices, unsupported breakers,
// bad device ids).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "adamant/adamant.h"
#include "runtime/exec/plan_shapes.h"
#include "runtime/exec/run_context.h"
#include "task/hash_table.h"
#include "task/merge.h"

namespace adamant {
namespace {

// --- ChunkSource -----------------------------------------------------------

TEST(ChunkSourceTest, SplitsWithRemainderInLastChunk) {
  exec::ChunkSource source(1000, 300);
  EXPECT_EQ(source.total(), 4u);
  EXPECT_EQ(source.rows(0), 300u);
  EXPECT_EQ(source.rows(3), 100u);
  EXPECT_EQ(source.base(3), 900u);
}

TEST(ChunkSourceTest, ExactMultipleHasNoRemainderChunk) {
  exec::ChunkSource source(1024, 256);
  EXPECT_EQ(source.total(), 4u);
  EXPECT_EQ(source.rows(3), 256u);
}

TEST(ChunkSourceTest, EmptyInputStillHasOneChunk) {
  // PipelineChunkCapacity clamps cap to input_rows, so an empty pipeline
  // arrives as (0, 0): one zero-row chunk, in which breakers still run and
  // write their identity.
  exec::ChunkSource source(0, 0);
  EXPECT_EQ(source.total(), 1u);
  EXPECT_EQ(source.rows(0), 0u);
}

// --- Model names and traits ------------------------------------------------

// Every model has its name, and the traits the one run loop, the memory
// estimate and the pricer read: whole input per chunk, staged, async.
TEST(ExecutionModelTest, EveryModelHasItsNameAndTraits) {
  struct Expected {
    ExecutionModelKind kind;
    const char* name;
    bool whole_input, staged, async;
  };
  const Expected kExpected[] = {
      {ExecutionModelKind::kOperatorAtATime, "operator-at-a-time", true,
       false, false},
      {ExecutionModelKind::kChunked, "chunked", false, false, false},
      {ExecutionModelKind::kPipelined, "pipelined", false, false, true},
      {ExecutionModelKind::kFourPhaseChunked, "4-phase", false, true, false},
      {ExecutionModelKind::kFourPhasePipelined, "4-phase-pipelined", false,
       true, true},
      // Its partitions run the chunked loop.
      {ExecutionModelKind::kDeviceParallel, "device-parallel", false, false,
       false},
  };
  for (const Expected& want : kExpected) {
    EXPECT_STREQ(ExecutionModelName(want.kind), want.name);
    const exec::ModelTraits traits = exec::TraitsOf(want.kind);
    EXPECT_EQ(traits.whole_input, want.whole_input) << want.name;
    EXPECT_EQ(traits.staged, want.staged) << want.name;
    EXPECT_EQ(traits.async, want.async) << want.name;
  }
}

// --- Host-side breaker merges ---------------------------------------------

TEST(MergeTest, AggPartialsFollowOpSemantics) {
  EXPECT_EQ(MergeAggPartials(AggOp::kSum, 3, 4), 7);
  // Partial counts add (unlike the per-row combine, where COUNT increments).
  EXPECT_EQ(MergeAggPartials(AggOp::kCount, 3, 4), 7);
  EXPECT_EQ(MergeAggPartials(AggOp::kMin, 3, 4), 3);
  EXPECT_EQ(MergeAggPartials(AggOp::kMax, 3, 4), 4);
}

// An aggregation table of `slots` slots with `num_accs` accumulators, in
// HashTableLayout's byte layout, filled the way the kernels insert.
struct AggTable {
  size_t slots;
  size_t num_accs;
  std::vector<uint8_t> bytes;

  AggTable(size_t slots_in, size_t num_accs_in)
      : slots(slots_in),
        num_accs(num_accs_in),
        bytes(HashTableLayout::AggTableBytes(slots_in, num_accs_in)) {
    for (size_t i = 0; i < slots; ++i) SetKey(i, HashTableLayout::kEmptyKey);
  }
  uint8_t* Slot(size_t i) {
    return bytes.data() + i * HashTableLayout::AggSlotBytes(num_accs);
  }
  int32_t Key(size_t i) {
    int32_t key;
    std::memcpy(&key, Slot(i), sizeof(key));
    return key;
  }
  void SetKey(size_t i, int32_t key) { std::memcpy(Slot(i), &key, 4); }
  int64_t Acc(size_t i, size_t a) {
    int64_t v;
    std::memcpy(&v, Slot(i) + HashTableLayout::kAggAccOffset + 8 * a, 8);
    return v;
  }
  void Insert(int32_t key, const std::vector<int64_t>& accs) {
    size_t i = HashTableLayout::Hash(key) & (slots - 1);
    while (Key(i) != HashTableLayout::kEmptyKey) i = (i + 1) % slots;
    SetKey(i, key);
    std::memcpy(Slot(i) + HashTableLayout::kAggAccOffset, accs.data(),
                8 * accs.size());
  }
  /// (key, accumulators) of every group, sorted by key.
  std::vector<std::pair<int32_t, std::vector<int64_t>>> Groups() {
    std::vector<std::pair<int32_t, std::vector<int64_t>>> groups;
    for (size_t i = 0; i < slots; ++i) {
      if (Key(i) == HashTableLayout::kEmptyKey) continue;
      std::vector<int64_t> accs;
      for (size_t a = 0; a < num_accs; ++a) accs.push_back(Acc(i, a));
      groups.emplace_back(Key(i), accs);
    }
    std::sort(groups.begin(), groups.end());
    return groups;
  }
};

TEST(MergeTest, AggTablesMergeByKey) {
  AggTable dst(8, 1), partial(8, 1);
  dst.Insert(1, {10});
  dst.Insert(2, {20});
  partial.Insert(2, {5});   // merges into dst's key 2
  partial.Insert(3, {30});  // new key
  auto st = MergeAggTables({AggOp::kSum}, partial.bytes.data(), 8,
                           dst.bytes.data());
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<std::pair<int32_t, std::vector<int64_t>>> want = {
      {1, {10}}, {2, {25}}, {3, {30}}};
  EXPECT_EQ(dst.Groups(), want);
}

TEST(MergeTest, AggTablesMergeEveryAccumulatorByItsOp) {
  // One table per GROUP BY: SUM, COUNT, MIN and MAX partials of the same
  // group each fold by their own op; a new group copies its whole slot.
  const std::vector<AggOp> ops = {AggOp::kSum, AggOp::kCount, AggOp::kMin,
                                  AggOp::kMax, AggOp::kSum};
  AggTable dst(16, ops.size()), partial(16, ops.size());
  dst.Insert(7, {100, 3, -5, 40, 1});
  dst.Insert(9, {1, 1, 1, 1, 1});
  partial.Insert(7, {-20, 2, -9, 30, 2});
  partial.Insert(11, {5, 4, 6, 7, 8});
  auto st = MergeAggTables(ops, partial.bytes.data(), 16, dst.bytes.data());
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<std::pair<int32_t, std::vector<int64_t>>> want = {
      {7, {80, 5, -9, 40, 3}}, {9, {1, 1, 1, 1, 1}}, {11, {5, 4, 6, 7, 8}}};
  EXPECT_EQ(dst.Groups(), want);
}

TEST(MergeTest, BuildTablesUnionPreservesDuplicates) {
  using Slot = HashTableLayout::BuildSlot;
  const size_t slots = 8;
  std::vector<Slot> dst(slots), partial(slots);
  for (auto* table : {&dst, &partial}) {
    for (Slot& slot : *table) slot.key = HashTableLayout::kEmptyKey;
  }
  auto insert = [&](std::vector<Slot>& table, int32_t key, int32_t payload) {
    size_t i = HashTableLayout::Hash(key) & (slots - 1);
    while (table[i].key != HashTableLayout::kEmptyKey) i = (i + 1) % slots;
    table[i].key = key;
    table[i].payload = payload;
  };
  insert(dst, 1, 100);
  insert(partial, 1, 200);  // same key: both entries must survive
  insert(partial, 2, 300);
  auto st = MergeBuildTables(reinterpret_cast<const uint8_t*>(partial.data()),
                             slots, reinterpret_cast<uint8_t*>(dst.data()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<std::pair<int32_t, int32_t>> got;
  for (const Slot& slot : dst) {
    if (slot.key != HashTableLayout::kEmptyKey) {
      got.emplace_back(slot.key, slot.payload);
    }
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<int32_t, int32_t>> want = {
      {1, 100}, {1, 200}, {2, 300}};
  EXPECT_EQ(got, want);
}

TEST(MergeTest, AggTableOverflowReported) {
  // A full destination with all-distinct keys cannot absorb a new one.
  AggTable dst(2, 1), partial(2, 1);
  dst.Insert(1, {10});
  dst.Insert(2, {20});
  partial.Insert(3, {30});
  auto st = MergeAggTables({AggOp::kSum}, partial.bytes.data(), 2,
                           dst.bytes.data());
  EXPECT_FALSE(st.ok());
}

// --- Device-parallel edge cases -------------------------------------------

struct DeviceParallelFixture {
  std::shared_ptr<Catalog> catalog;

  static const DeviceParallelFixture& Get() {
    static const DeviceParallelFixture* const kFixture = [] {
      auto* fixture = new DeviceParallelFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      config.include_dimension_tables = false;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

std::unique_ptr<DeviceManager> GpuManager(int count) {
  auto manager = std::make_unique<DeviceManager>();
  for (int i = 0; i < count; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

TEST(DeviceParallelTest, SingleDeviceSetDegeneratesToChunked) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(1);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0};
  options.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(*bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*revenue, *want);
}

TEST(DeviceParallelTest, MoreDevicesThanChunksLeavesIdleDevices) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(4);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1, 2, 3};
  // Chunk cap large enough that there is exactly one chunk: three devices
  // run zero chunks and must not corrupt the merged result.
  options.chunk_elems = 1u << 25;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(*bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*revenue, *want);
  EXPECT_EQ(exec->stats.chunks, 1u);
}

TEST(DeviceParallelTest, EmptyDeviceSetUsesAllPluggedDevices) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->stats.devices.size(), 2u);
  for (const DeviceRunStats& device : exec->stats.devices) {
    EXPECT_GT(device.split_share, 0.0) << device.name;
  }
}

TEST(DeviceParallelTest, UnpluggedDeviceIdRejected) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(1);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 7};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  EXPECT_FALSE(exec.ok());
}

TEST(DeviceParallelTest, GlobalBreakersRejected) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  // PREFIX_SUM / SORT_AGG are global breakers: a chunk split would change
  // their results, so the driver must refuse rather than silently corrupt.
  auto bundle = plan::BuildRevenueByOrderSorted(*fixture.catalog, 0);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.device_set = {0, 1};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsNotSupported()) << exec.status().ToString();
}

// Device-parallel accumulates hub byte counters from every partition.
TEST(DeviceParallelTest, StatsAccumulateAcrossPartitions) {
  const auto& fixture = DeviceParallelFixture::Get();
  auto manager = GpuManager(2);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());

  ExecutionOptions chunked;
  chunked.model = ExecutionModelKind::kChunked;
  chunked.chunk_elems = 1024;
  QueryExecutor executor(manager.get());
  auto base = executor.Run(bundle->graph.get(), chunked);
  ASSERT_TRUE(base.ok());

  ExecutionOptions parallel = chunked;
  parallel.model = ExecutionModelKind::kDeviceParallel;
  parallel.device_set = {0, 1};
  auto split = executor.Run(bundle->graph.get(), parallel);
  ASSERT_TRUE(split.ok()) << split.status().ToString();

  // Same scan volume moves host-to-device regardless of which device runs
  // each chunk, and the chunk count matches.
  EXPECT_EQ(split->stats.bytes_h2d, base->stats.bytes_h2d);
  EXPECT_EQ(split->stats.chunks, base->stats.chunks);
}

}  // namespace
}  // namespace adamant
