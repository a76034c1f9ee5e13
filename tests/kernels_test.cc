// Unit tests for the Table-I primitive kernels, run through a device so the
// full argument-resolution path (buffers, counts, scalars) is exercised.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "common/bit_util.h"
#include "device/sim_device.h"
#include "sim/presets.h"
#include "task/hash_table.h"
#include "task/kernel_registry.h"
#include "task/kernels.h"
#include "task/kernels_fused.h"

namespace adamant {
namespace {

/// Bit i of a word-padded bitmap.
bool Bit(const std::vector<uint64_t>& words, size_t i) {
  return (words[i / 64] >> (i % 64)) & 1;
}

/// Test harness: one CUDA-like device plus typed push/pull helpers.
class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ctx = std::make_shared<SimContext>();
    device_ = std::make_unique<SimulatedDevice>(
        "k", sim::MakePerfModel(sim::DriverKind::kCudaGpu,
                                sim::HardwareSetup::kSetup1),
        SdkFormat::kCudaDevPtr, false, ctx);
    ASSERT_TRUE(BindStandardKernels(device_.get()).ok());
    ASSERT_TRUE(device_->Initialize().ok());
  }

  template <typename T>
  BufferId Push(const std::vector<T>& data) {
    auto buf = device_->PrepareMemory(data.size() * sizeof(T));
    EXPECT_TRUE(buf.ok());
    EXPECT_TRUE(
        device_->PlaceData(*buf, data.data(), data.size() * sizeof(T), 0).ok());
    return *buf;
  }

  BufferId Alloc(size_t bytes) {
    auto buf = device_->PrepareMemory(bytes);
    EXPECT_TRUE(buf.ok());
    return *buf;
  }

  template <typename T>
  std::vector<T> Pull(BufferId id, size_t n) {
    std::vector<T> out(n);
    EXPECT_TRUE(device_->RetrieveData(id, out.data(), n * sizeof(T), 0).ok());
    return out;
  }

  int64_t PullCount(BufferId id) { return Pull<int64_t>(id, 1)[0]; }

  std::unique_ptr<SimulatedDevice> device_;
};

// --- MAP ---

TEST_F(KernelTest, MapScalarOps) {
  BufferId in = Push<int32_t>({1, 2, 3});
  BufferId out = Alloc(12);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kAddScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 10, 3))
                  .ok());
  EXPECT_EQ(Pull<int32_t>(out, 3), (std::vector<int32_t>{11, 12, 13}));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kMulScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt32, -2, 3))
                  .ok());
  EXPECT_EQ(Pull<int32_t>(out, 3), (std::vector<int32_t>{-2, -4, -6}));
}

TEST_F(KernelTest, MapColumnOps) {
  BufferId a = Push<int32_t>({10, 20, 30});
  BufferId b = Push<int32_t>({1, 2, 3});
  BufferId out = Alloc(12);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(a, b, out, MapOp::kSubCol,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 0, 3))
                  .ok());
  EXPECT_EQ(Pull<int32_t>(out, 3), (std::vector<int32_t>{9, 18, 27}));
}

TEST_F(KernelTest, MapWideningCast) {
  BufferId in = Push<int32_t>({1 << 30, 5});
  BufferId out = Alloc(16);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kMulScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt64, 4, 2))
                  .ok());
  EXPECT_EQ(Pull<int64_t>(out, 2),
            (std::vector<int64_t>{int64_t{1} << 32, 20}));
}

TEST_F(KernelTest, MapFixedPointPercentOps) {
  // price * (1 - discount): 1000 cents at 7% discount -> 930.
  BufferId price = Push<int64_t>({1000, 999});
  BufferId pct = Push<int32_t>({7, 3});
  BufferId out = Alloc(16);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(price, pct, out,
                                             MapOp::kMulPctComplement,
                                             ElementType::kInt64,
                                             ElementType::kInt64, 0, 2))
                  .ok());
  EXPECT_EQ(Pull<int64_t>(out, 2), (std::vector<int64_t>{930, 969}));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(price, pct, out, MapOp::kMulPct,
                                             ElementType::kInt64,
                                             ElementType::kInt64, 0, 2))
                  .ok());
  EXPECT_EQ(Pull<int64_t>(out, 2), (std::vector<int64_t>{70, 29}));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(price, pct, out,
                                             MapOp::kMulPctPlus,
                                             ElementType::kInt64,
                                             ElementType::kInt64, 0, 2))
                  .ok());
  EXPECT_EQ(Pull<int64_t>(out, 2), (std::vector<int64_t>{1070, 1028}));
}

TEST_F(KernelTest, MapRejectsOperandMismatch) {
  BufferId in = Push<int32_t>({1});
  BufferId out = Alloc(4);
  // Column op without second input.
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kAddCol,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 0, 1))
                  .IsInvalidArgument());
  // Scalar op with a second input.
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, in, out, MapOp::kAddScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 0, 1))
                  .IsInvalidArgument());
}

TEST_F(KernelTest, MapRejectsFloat) {
  BufferId in = Push<double>({1.0});
  BufferId out = Alloc(8);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kIdentity,
                                             ElementType::kFloat64,
                                             ElementType::kFloat64, 0, 1))
                  .IsNotSupported());
}

TEST_F(KernelTest, MapOutputTooSmall) {
  BufferId in = Push<int32_t>({1, 2, 3, 4});
  BufferId out = Alloc(8);  // room for 2 only
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kIdentity,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 0, 4))
                  .IsExecutionError());
}

// --- FILTER_BITMAP (parameterized over comparison ops) ---

struct FilterCase {
  CmpOp op;
  int64_t lo, hi;
  std::vector<bool> expected;  // over {1, 5, 7, 9, 12}
};

class FilterBitmapTest : public KernelTest,
                         public ::testing::WithParamInterface<FilterCase> {};

TEST_P(FilterBitmapTest, ComparisonSemantics) {
  const FilterCase& c = GetParam();
  BufferId in = Push<int32_t>({1, 5, 7, 9, 12});
  BufferId bitmap = Alloc(bit_util::BytesForBits(5));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterBitmap(
                      in, bitmap, c.op, ElementType::kInt32, c.lo, c.hi,
                      false, 5))
                  .ok());
  auto words = Pull<uint64_t>(bitmap, 1);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(Bit(words, i), c.expected[i])
        << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, FilterBitmapTest,
    ::testing::Values(
        FilterCase{CmpOp::kLt, 7, 0, {true, true, false, false, false}},
        FilterCase{CmpOp::kLe, 7, 0, {true, true, true, false, false}},
        FilterCase{CmpOp::kGt, 7, 0, {false, false, false, true, true}},
        FilterCase{CmpOp::kGe, 7, 0, {false, false, true, true, true}},
        FilterCase{CmpOp::kEq, 9, 0, {false, false, false, true, false}},
        FilterCase{CmpOp::kNe, 9, 0, {true, true, true, false, true}},
        FilterCase{CmpOp::kBetween, 5, 9, {false, true, true, true, false}}));

TEST_F(KernelTest, FilterBitmapCombineAnd) {
  BufferId in = Push<int32_t>({1, 5, 7, 9});
  BufferId bitmap = Alloc(bit_util::BytesForBits(4));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterBitmap(in, bitmap, CmpOp::kGt,
                                                      ElementType::kInt32, 2,
                                                      0, false, 4))
                  .ok());
  // AND with v < 8: expect {_, 5, 7, _}.
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterBitmap(in, bitmap, CmpOp::kLt,
                                                      ElementType::kInt32, 8,
                                                      0, true, 4))
                  .ok());
  auto words = Pull<uint64_t>(bitmap, 1);
  EXPECT_FALSE(Bit(words, 0));
  EXPECT_TRUE(Bit(words, 1));
  EXPECT_TRUE(Bit(words, 2));
  EXPECT_FALSE(Bit(words, 3));
}

TEST_F(KernelTest, FilterBitmapInt64Column) {
  BufferId in = Push<int64_t>({100, int64_t{1} << 40, 50});
  BufferId bitmap = Alloc(bit_util::BytesForBits(3));
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterBitmap(
                      in, bitmap, CmpOp::kGt, ElementType::kInt64, 99, 0,
                      false, 3))
                  .ok());
  auto words = Pull<uint64_t>(bitmap, 1);
  EXPECT_TRUE(Bit(words, 0));
  EXPECT_TRUE(Bit(words, 1));
  EXPECT_FALSE(Bit(words, 2));
}

// --- FILTER_POSITION ---

TEST_F(KernelTest, FilterPositionEmitsIndices) {
  BufferId in = Push<int32_t>({4, 8, 2, 8, 1});
  BufferId positions = Alloc(5 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterPosition(
                      in, positions, count, CmpOp::kEq, ElementType::kInt32,
                      8, 0, 5))
                  .ok());
  EXPECT_EQ(PullCount(count), 2);
  auto pos = Pull<int32_t>(positions, 2);
  EXPECT_EQ(pos, (std::vector<int32_t>{1, 3}));
}

TEST_F(KernelTest, FilterPositionOverflowIsError) {
  BufferId in = Push<int32_t>({1, 1, 1});
  BufferId positions = Alloc(1 * 4);  // room for one hit
  BufferId count = Alloc(8);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeFilterPosition(
                      in, positions, count, CmpOp::kEq, ElementType::kInt32,
                      1, 0, 3))
                  .IsExecutionError());
}

// --- MATERIALIZE / MATERIALIZE_POSITION ---

TEST_F(KernelTest, MaterializeCompactsByBitmap) {
  BufferId in = Push<int32_t>({10, 20, 30, 40, 50});
  std::vector<uint64_t> bits = {0b10101};
  BufferId bitmap = Push<uint64_t>(bits);
  BufferId out = Alloc(5 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMaterialize(
                      in, bitmap, out, count, ElementType::kInt32, 5))
                  .ok());
  EXPECT_EQ(PullCount(count), 3);
  EXPECT_EQ(Pull<int32_t>(out, 3), (std::vector<int32_t>{10, 30, 50}));
}

TEST_F(KernelTest, MaterializeInt64) {
  BufferId in = Push<int64_t>({100, 200, 300});
  BufferId bitmap = Push<uint64_t>({0b110});
  BufferId out = Alloc(3 * 8);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMaterialize(
                      in, bitmap, out, count, ElementType::kInt64, 3))
                  .ok());
  EXPECT_EQ(PullCount(count), 2);
  EXPECT_EQ(Pull<int64_t>(out, 2), (std::vector<int64_t>{200, 300}));
}

TEST_F(KernelTest, MaterializeOverflowIsError) {
  BufferId in = Push<int32_t>({1, 2, 3});
  BufferId bitmap = Push<uint64_t>({0b111});
  BufferId out = Alloc(2 * 4);
  BufferId count = Alloc(8);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMaterialize(
                      in, bitmap, out, count, ElementType::kInt32, 3))
                  .IsExecutionError());
}

TEST_F(KernelTest, MaterializePositionGathers) {
  BufferId in = Push<int32_t>({10, 20, 30, 40});
  BufferId positions = Push<int32_t>({3, 0, 3});
  BufferId out = Alloc(3 * 4);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMaterializePosition(
                      in, positions, out, ElementType::kInt32, 3))
                  .ok());
  EXPECT_EQ(Pull<int32_t>(out, 3), (std::vector<int32_t>{40, 10, 40}));
}

TEST_F(KernelTest, MaterializePositionOutOfRangeIsError) {
  BufferId in = Push<int32_t>({10, 20});
  BufferId positions = Push<int32_t>({5});
  BufferId out = Alloc(4);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMaterializePosition(
                      in, positions, out, ElementType::kInt32, 1))
                  .IsExecutionError());
}

// --- PREFIX_SUM ---

TEST_F(KernelTest, PrefixSumInclusiveExclusive) {
  BufferId in = Push<int32_t>({1, 0, 1, 1, 0});
  BufferId out = Alloc(5 * 4);
  ASSERT_TRUE(device_->Execute(kernels::MakePrefixSum(in, out, false, 5)).ok());
  EXPECT_EQ(Pull<int32_t>(out, 5), (std::vector<int32_t>{1, 1, 2, 3, 3}));
  ASSERT_TRUE(device_->Execute(kernels::MakePrefixSum(in, out, true, 5)).ok());
  EXPECT_EQ(Pull<int32_t>(out, 5), (std::vector<int32_t>{0, 1, 1, 2, 3}));
}

// --- AGG_BLOCK ---

TEST_F(KernelTest, AggBlockOps) {
  BufferId in = Push<int32_t>({4, -2, 9, 1});
  BufferId acc = Alloc(8);
  auto run = [&](AggOp op) {
    EXPECT_TRUE(device_
                    ->Execute(kernels::MakeAggBlock(in, acc, op,
                                                    ElementType::kInt32,
                                                    /*init=*/true, 4))
                    .ok());
    return PullCount(acc);
  };
  EXPECT_EQ(run(AggOp::kSum), 12);
  EXPECT_EQ(run(AggOp::kCount), 4);
  EXPECT_EQ(run(AggOp::kMin), -2);
  EXPECT_EQ(run(AggOp::kMax), 9);
}

TEST_F(KernelTest, AggBlockAccumulatesAcrossChunks) {
  BufferId a = Push<int32_t>({1, 2});
  BufferId b = Push<int32_t>({10});
  BufferId acc = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeAggBlock(a, acc, AggOp::kSum,
                                                  ElementType::kInt32, true, 2))
                  .ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeAggBlock(b, acc, AggOp::kSum,
                                                  ElementType::kInt32, false,
                                                  1))
                  .ok());
  EXPECT_EQ(PullCount(acc), 13);
}

TEST_F(KernelTest, AggBlockMinAcrossChunksUsesIdentity) {
  BufferId a = Push<int32_t>({5, 9});
  BufferId b = Push<int32_t>({7});
  BufferId acc = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeAggBlock(a, acc, AggOp::kMin,
                                                  ElementType::kInt32, true, 2))
                  .ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeAggBlock(b, acc, AggOp::kMin,
                                                  ElementType::kInt32, false,
                                                  1))
                  .ok());
  EXPECT_EQ(PullCount(acc), 5);
}

// --- HASH_BUILD / HASH_PROBE ---

TEST_F(KernelTest, HashBuildProbeInner) {
  BufferId keys = Push<int32_t>({10, 20, 30});
  BufferId payload = Push<int32_t>({100, 200, 300});
  const size_t slots = 16;
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(
                                   table, HashTableLayout::kEmptyKey,
                                   HashTableLayout::BuildTableBytes(slots) / 4))
                  .ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, payload, table,
                                                   slots, 0, 3))
                  .ok());
  BufferId probe_keys = Push<int32_t>({20, 99, 10});
  BufferId left = Alloc(4 * 4);
  BufferId right = Alloc(4 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashProbe(
                      probe_keys, table, left, right, count, slots,
                      ProbeMode::kAll, 0, 3))
                  .ok());
  EXPECT_EQ(PullCount(count), 2);
  EXPECT_EQ(Pull<int32_t>(left, 2), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Pull<int32_t>(right, 2), (std::vector<int32_t>{200, 100}));
}

TEST_F(KernelTest, HashProbeDuplicateBuildKeysEmitAllMatches) {
  BufferId keys = Push<int32_t>({7, 7, 8});
  const size_t slots = 16;
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(
                                   table, HashTableLayout::kEmptyKey,
                                   HashTableLayout::BuildTableBytes(slots) / 4))
                  .ok());
  // No payload: defaults to pos_base + i.
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, kInvalidBuffer,
                                                   table, slots, 100, 3))
                  .ok());
  BufferId probe_keys = Push<int32_t>({7});
  BufferId left = Alloc(4 * 4);
  BufferId right = Alloc(4 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashProbe(
                      probe_keys, table, left, right, count, slots,
                      ProbeMode::kAll, 0, 1))
                  .ok());
  EXPECT_EQ(PullCount(count), 2);
  auto payloads = Pull<int32_t>(right, 2);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<int32_t>{100, 101}));
}

TEST_F(KernelTest, HashProbeSemiEmitsOnce) {
  BufferId keys = Push<int32_t>({7, 7});
  const size_t slots = 16;
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(
                                   table, HashTableLayout::kEmptyKey,
                                   HashTableLayout::BuildTableBytes(slots) / 4))
                  .ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, kInvalidBuffer,
                                                   table, slots, 0, 2))
                  .ok());
  BufferId probe_keys = Push<int32_t>({7, 9});
  BufferId left = Alloc(4 * 4);
  BufferId right = Alloc(4 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashProbe(
                      probe_keys, table, left, right, count, slots,
                      ProbeMode::kSemi, 0, 2))
                  .ok());
  EXPECT_EQ(PullCount(count), 1);
  EXPECT_EQ(Pull<int32_t>(left, 1)[0], 0);
}

TEST_F(KernelTest, HashBuildTableFullIsError) {
  BufferId keys = Push<int32_t>({1, 2, 3, 4, 5});
  const size_t slots = 4;
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(
                                   table, HashTableLayout::kEmptyKey,
                                   HashTableLayout::BuildTableBytes(slots) / 4))
                  .ok());
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, kInvalidBuffer,
                                                   table, slots, 0, 5))
                  .IsExecutionError());
}

TEST_F(KernelTest, HashBuildRejectsNonPowerOfTwoSlots) {
  BufferId keys = Push<int32_t>({1});
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(16));
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, kInvalidBuffer,
                                                   table, 10, 0, 1))
                  .IsInvalidArgument());
}

TEST_F(KernelTest, HashBuildRejectsSentinelKey) {
  BufferId keys = Push<int32_t>({HashTableLayout::kEmptyKey});
  const size_t slots = 16;
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys, kInvalidBuffer,
                                                   table, slots, 0, 1))
                  .IsInvalidArgument());
}

TEST_F(KernelTest, HashProbeCollisionClusters) {
  // Many keys in a small table force linear-probing clusters; probing must
  // still find exactly the right entries.
  std::vector<int32_t> keys(32);
  std::iota(keys.begin(), keys.end(), 1);
  const size_t slots = 64;
  BufferId keys_buf = Push(keys);
  BufferId table = Alloc(HashTableLayout::BuildTableBytes(slots));
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(
                                   table, HashTableLayout::kEmptyKey,
                                   HashTableLayout::BuildTableBytes(slots) / 4))
                  .ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashBuild(keys_buf, kInvalidBuffer,
                                                   table, slots, 0, 32))
                  .ok());
  BufferId left = Alloc(32 * 4);
  BufferId right = Alloc(32 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeHashProbe(
                      keys_buf, table, left, right, count, slots,
                      ProbeMode::kAll, 0, 32))
                  .ok());
  EXPECT_EQ(PullCount(count), 32);
  auto payloads = Pull<int32_t>(right, 32);
  std::sort(payloads.begin(), payloads.end());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(payloads[static_cast<size_t>(i)], i);
}

// --- HASH_AGG ---

// The groups of an aggregation table of `slots` slots and `num_accs`
// accumulators: key -> accumulators.
std::map<int32_t, std::vector<int64_t>> AggGroups(
    const std::vector<uint8_t>& bytes, size_t slots, size_t num_accs) {
  std::map<int32_t, std::vector<int64_t>> groups;
  const size_t slot_bytes = HashTableLayout::AggSlotBytes(num_accs);
  for (size_t i = 0; i < slots; ++i) {
    const uint8_t* slot = bytes.data() + i * slot_bytes;
    int32_t key;
    std::memcpy(&key, slot, sizeof(key));
    if (key == HashTableLayout::kEmptyKey) continue;
    std::vector<int64_t> accs(num_accs);
    std::memcpy(accs.data(), slot + HashTableLayout::kAggAccOffset,
                num_accs * sizeof(int64_t));
    groups[key] = accs;
  }
  return groups;
}

class HashAggTest : public KernelTest {
 protected:
  /// Runs one HASH_AGG launch of `accs` over `keys` into a fresh table of
  /// `slots` slots and returns its groups.
  std::map<int32_t, std::vector<int64_t>> Run(
      BufferId keys, size_t n,
      const std::vector<kernels::HashAggAccumulator>& accs, size_t slots) {
    const size_t bytes = HashTableLayout::AggTableBytes(slots, accs.size());
    BufferId table = Alloc(bytes);
    EXPECT_TRUE(device_
                    ->Execute(kernels::MakeFill(
                        table, HashTableLayout::kEmptyKey, bytes / 4))
                    .ok());
    const Status status = device_->Execute(
        kernels::MakeHashAgg(keys, accs, table, slots, n, 3, false));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return AggGroups(Pull<uint8_t>(table, bytes), slots, accs.size());
  }
};

using Groups = std::map<int32_t, std::vector<int64_t>>;

TEST_F(HashAggTest, SumByGroup) {
  BufferId keys = Push<int32_t>({1, 2, 1, 3, 2, 1});
  BufferId values = Push<int64_t>({10, 20, 30, 40, 50, 60});
  EXPECT_EQ(Run(keys, 6, {{AggOp::kSum, values, ElementType::kInt64}}, 16),
            (Groups{{1, {100}}, {2, {70}}, {3, {40}}}));
}

TEST_F(HashAggTest, CountNeedsNoValues) {
  BufferId keys = Push<int32_t>({5, 5, 6});
  EXPECT_EQ(Run(keys, 3, {{AggOp::kCount}}, 16),
            (Groups{{5, {2}}, {6, {1}}}));
}

TEST_F(HashAggTest, OneProbeFoldsEveryAccumulator) {
  // Five accumulators of every op and both value types in one table: the
  // slot holds each one's value, in launch order.
  BufferId keys = Push<int32_t>({1, 2, 1, 1, 2});
  BufferId small = Push<int32_t>({4, -1, 7, 2, 3});
  BufferId big = Push<int64_t>({10, 20, 30, -40, 50});
  EXPECT_EQ(Run(keys, 5,
                {{AggOp::kSum, small, ElementType::kInt32},
                 {AggOp::kCount},
                 {AggOp::kMin, big, ElementType::kInt64},
                 {AggOp::kMax, small, ElementType::kInt32},
                 {AggOp::kSum, big, ElementType::kInt64}},
                16),
            (Groups{{1, {13, 3, -40, 7, 0}}, {2, {2, 2, 20, 3, 70}}}));
}

TEST_F(HashAggTest, RejectsValueMismatch) {
  BufferId keys = Push<int32_t>({1});
  BufferId values = Push<int64_t>({1});
  const size_t slots = 16;
  BufferId table = Alloc(HashTableLayout::AggTableBytes(slots, 2));
  const auto launch = [&](std::vector<kernels::HashAggAccumulator> accs) {
    return device_->Execute(
        kernels::MakeHashAgg(keys, accs, table, slots, 1, 1, false));
  };
  // COUNT with values.
  EXPECT_TRUE(launch({{AggOp::kCount, values}}).IsInvalidArgument());
  // SUM without values.
  EXPECT_TRUE(launch({{AggOp::kSum}}).IsInvalidArgument());
  // A values buffer short of the valued accumulators.
  EXPECT_TRUE(launch({{AggOp::kSum, values}, {AggOp::kMax}})
                  .IsInvalidArgument());
  // More accumulators than a slot holds.
  EXPECT_TRUE(launch(std::vector<kernels::HashAggAccumulator>(
                         HashTableLayout::kMaxAccumulators + 1,
                         {AggOp::kCount}))
                  .IsInvalidArgument());
}

TEST_F(HashAggTest, MinMax) {
  BufferId keys = Push<int32_t>({1, 1, 1});
  BufferId values = Push<int64_t>({5, -3, 9});
  for (auto [op, want] : std::vector<std::pair<AggOp, int64_t>>{
           {AggOp::kMin, -3}, {AggOp::kMax, 9}}) {
    EXPECT_EQ(Run(keys, 3, {{op, values, ElementType::kInt64}}, 16),
              (Groups{{1, {want}}}));
  }
}

// --- SORT_AGG ---

TEST_F(KernelTest, SortAggSumsByGroupIndex) {
  BufferId values = Push<int64_t>({10, 20, 30, 40});
  BufferId pxsum = Push<int32_t>({0, 0, 1, 2});
  BufferId agg = Alloc(3 * 8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeSortAgg(values, pxsum, agg,
                                                 AggOp::kSum,
                                                 ElementType::kInt64, 3, true,
                                                 4))
                  .ok());
  EXPECT_EQ(Pull<int64_t>(agg, 3), (std::vector<int64_t>{30, 30, 40}));
}

TEST_F(KernelTest, SortAggRejectsMinMax) {
  BufferId values = Push<int64_t>({1});
  BufferId pxsum = Push<int32_t>({0});
  BufferId agg = Alloc(8);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeSortAgg(values, pxsum, agg,
                                                 AggOp::kMin,
                                                 ElementType::kInt64, 1, true,
                                                 1))
                  .IsNotSupported());
}

TEST_F(KernelTest, SortAggGroupOutOfRangeIsError) {
  BufferId values = Push<int64_t>({1});
  BufferId pxsum = Push<int32_t>({5});
  BufferId agg = Alloc(2 * 8);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeSortAgg(values, pxsum, agg,
                                                 AggOp::kSum,
                                                 ElementType::kInt64, 2, true,
                                                 1))
                  .IsExecutionError());
}

// --- Device-resident counts (the count_in convention) ---

TEST_F(KernelTest, CountInLimitsProcessing) {
  BufferId in = Push<int32_t>({1, 2, 3, 4, 5});
  BufferId count_in = Push<int64_t>({3});
  BufferId out = Alloc(5 * 4);
  // Pre-fill output so untouched slots are observable.
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(out, -1, 5)).ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kAddScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 10,
                                             /*worst case=*/5, count_in))
                  .ok());
  auto got = Pull<int32_t>(out, 5);
  EXPECT_EQ(got, (std::vector<int32_t>{11, 12, 13, -1, -1}));
}

TEST_F(KernelTest, CountInChainsThroughPipelineStages) {
  // filter_position -> materialize_position driven purely by device counts.
  BufferId in = Push<int32_t>({9, 1, 9, 2, 9});
  BufferId positions = Alloc(5 * 4);
  BufferId count = Alloc(8);
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeFilterPosition(
                      in, positions, count, CmpOp::kEq, ElementType::kInt32,
                      9, 0, 5))
                  .ok());
  BufferId values = Push<int32_t>({100, 101, 102, 103, 104});
  BufferId out = Alloc(5 * 4);
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(out, -1, 5)).ok());
  ASSERT_TRUE(device_
                  ->Execute(kernels::MakeMaterializePosition(
                      values, positions, out, ElementType::kInt32,
                      /*worst case=*/5, count))
                  .ok());
  auto got = Pull<int32_t>(out, 5);
  EXPECT_EQ(got, (std::vector<int32_t>{100, 102, 104, -1, -1}));
}

TEST_F(KernelTest, NegativeDeviceCountIsError) {
  BufferId in = Push<int32_t>({1});
  BufferId count_in = Push<int64_t>({-1});
  BufferId out = Alloc(4);
  EXPECT_TRUE(device_
                  ->Execute(kernels::MakeMap(in, kInvalidBuffer, out,
                                             MapOp::kIdentity,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 0, 1,
                                             count_in))
                  .IsExecutionError());
}

// --- Input capacity ---

TEST_F(KernelTest, EveryKernelChecksTheBuffersItReads) {
  // 65,536 rows over a 16-byte input: each kernel must refuse the launch
  // with "... buffer too small" before reading past the buffer. Every other
  // buffer is large enough. fill reads no buffer.
  constexpr size_t kRows = 65536;
  constexpr size_t kSlots = 2 * kRows;
  BufferId tiny = Alloc(16);
  BufferId ints = Push(std::vector<int32_t>(kRows, 1));
  BufferId longs = Push(std::vector<int64_t>(kRows, 1));
  BufferId bitmap = Push(std::vector<uint64_t>(kRows / 64, ~uint64_t{0}));
  BufferId out_a = Alloc(kRows * 8);
  BufferId out_b = Alloc(kRows * 8);
  BufferId count = Alloc(8);
  BufferId acc = Alloc(8);
  constexpr int32_t kEmpty = HashTableLayout::kEmptyKey;
  BufferId build_table = Push(std::vector<int32_t>(
      HashTableLayout::BuildTableBytes(kSlots) / 4, kEmpty));
  BufferId agg_table = Push(std::vector<int32_t>(
      HashTableLayout::AggTableBytes(kSlots, 4) / 4, kEmpty));
  FusedStep load;
  load.op = FusedStep::Op::kLoad;
  load.b = static_cast<int64_t>(ElementType::kInt32);
  FusedStep sum;
  sum.op = FusedStep::Op::kAgg;
  sum.a = static_cast<int64_t>(AggOp::kSum);
  sum.src0 = 0;
  const auto i32 = ElementType::kInt32;
  const auto i64 = ElementType::kInt64;

  const std::vector<std::pair<std::string, KernelLaunch>> cases = {
      {"map in0", kernels::MakeMap(tiny, kInvalidBuffer, out_a,
                                   MapOp::kAddScalar, i32, i64, 1, kRows)},
      {"map in1", kernels::MakeMap(ints, tiny, out_a, MapOp::kAddCol, i32,
                                   i32, 0, kRows)},
      {"filter_bitmap in",
       kernels::MakeFilterBitmap(tiny, bitmap, CmpOp::kGt, i32, 0, 0, false,
                                 kRows)},
      {"filter_position in",
       kernels::MakeFilterPosition(tiny, out_a, count, CmpOp::kGt, i32, 0, 0,
                                   kRows)},
      {"materialize in", kernels::MakeMaterialize(tiny, bitmap, out_a, count,
                                                  i32, kRows)},
      {"materialize_position positions",
       kernels::MakeMaterializePosition(ints, tiny, out_a, i32, kRows)},
      {"prefix_sum in", kernels::MakePrefixSum(tiny, out_a, false, kRows)},
      {"agg_block in",
       kernels::MakeAggBlock(tiny, acc, AggOp::kSum, i32, true, kRows)},
      {"hash_build keys", kernels::MakeHashBuild(tiny, kInvalidBuffer,
                                                 build_table, kSlots, 0,
                                                 kRows)},
      {"hash_build payload",
       kernels::MakeHashBuild(ints, tiny, build_table, kSlots, 0, kRows)},
      {"hash_probe keys",
       kernels::MakeHashProbe(tiny, build_table, out_a, out_b, count, kSlots,
                              ProbeMode::kAll, 0, kRows)},
      {"hash_agg keys",
       kernels::MakeHashAgg(tiny, {{AggOp::kSum, longs, i64}}, agg_table,
                            kSlots, kRows, 1, false)},
      // Every values buffer of a four-accumulator launch, in turn.
      {"hash_agg values 0",
       kernels::MakeHashAgg(ints,
                            {{AggOp::kSum, tiny, i64},
                             {AggOp::kCount},
                             {AggOp::kMin, ints, i32},
                             {AggOp::kMax, longs, i64}},
                            agg_table, kSlots, kRows, 1, false)},
      {"hash_agg values 1",
       kernels::MakeHashAgg(ints,
                            {{AggOp::kSum, longs, i64},
                             {AggOp::kCount},
                             {AggOp::kMin, tiny, i32},
                             {AggOp::kMax, longs, i64}},
                            agg_table, kSlots, kRows, 1, false)},
      {"hash_agg values 2",
       kernels::MakeHashAgg(ints,
                            {{AggOp::kSum, longs, i64},
                             {AggOp::kCount},
                             {AggOp::kMin, ints, i32},
                             {AggOp::kMax, tiny, i64}},
                            agg_table, kSlots, kRows, 1, false)},
      {"sort_agg values", kernels::MakeSortAgg(tiny, ints, out_a, AggOp::kSum,
                                               i64, 2, true, kRows)},
      {"sort_agg pxsum", kernels::MakeSortAgg(longs, tiny, out_a, AggOp::kSum,
                                              i64, 2, true, kRows)},
      {"fused in", kernels::MakeFused({tiny}, acc, kInvalidBuffer,
                                      {load, sum}, true, kRows)},
  };
  for (const auto& [what, launch] : cases) {
    const Status status = device_->Execute(launch);
    EXPECT_TRUE(status.IsExecutionError()) << what << ": " << status.ToString();
    EXPECT_NE(status.message().find("buffer too small"), std::string::npos)
        << what << ": " << status.ToString();
  }
}

// --- fill ---

TEST_F(KernelTest, FillWritesPattern) {
  BufferId out = Alloc(4 * 4);
  ASSERT_TRUE(device_->Execute(kernels::MakeFill(out, 0x5A5A5A5A, 4)).ok());
  EXPECT_EQ(Pull<int32_t>(out, 4), std::vector<int32_t>(4, 0x5A5A5A5A));
}

// --- Registry metadata ---

TEST(KernelRegistry, AllKernelNamesHaveFnAndSource) {
  for (const std::string& name : kernels::AllKernelNames()) {
    EXPECT_TRUE(kernels::HasKernel(name));
    EXPECT_NE(kernels::KernelSourceText(name).find("__kernel"),
              std::string::npos);
  }
  EXPECT_FALSE(kernels::HasKernel("bogus"));
  EXPECT_EQ(kernels::AllKernelNames().size(), 13u)
      << "11 Table-I + fill + fused";
}

}  // namespace
}  // namespace adamant
