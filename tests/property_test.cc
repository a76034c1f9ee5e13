// Property-based tests: invariants that must hold for any input data, chunk
// size, driver or execution model. Inputs are generated from seeded PRNGs
// so every run is reproducible; failures print the seed via the test name.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <unordered_map>

#include "adamant/adamant.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "task/hash_table.h"

namespace adamant {
namespace {

struct Rig {
  DeviceManager manager;
  DeviceId dev_id = 0;

  explicit Rig(sim::DriverKind kind = sim::DriverKind::kCudaGpu) {
    auto device = manager.AddDriver(kind);
    ADAMANT_CHECK(device.ok());
    dev_id = *device;
    ADAMANT_CHECK(BindStandardKernels(manager.device(dev_id)).ok());
  }
  SimulatedDevice* dev() { return manager.device(dev_id); }

  template <typename T>
  BufferId Push(const std::vector<T>& data) {
    auto buf = dev()->PrepareMemory(data.size() * sizeof(T));
    EXPECT_TRUE(buf.ok());
    EXPECT_TRUE(
        dev()->PlaceData(*buf, data.data(), data.size() * sizeof(T), 0).ok());
    return *buf;
  }
  BufferId Alloc(size_t bytes) {
    auto buf = dev()->PrepareMemory(bytes);
    EXPECT_TRUE(buf.ok());
    return *buf;
  }
  template <typename T>
  std::vector<T> Pull(BufferId id, size_t n) {
    std::vector<T> out(n);
    EXPECT_TRUE(dev()->RetrieveData(id, out.data(), n * sizeof(T), 0).ok());
    return out;
  }
};

// ---------------------------------------------------------------------------
// Property 1: for every comparison op and random data, the early path
// (filter_bitmap + materialize) and the late path (filter_position +
// materialize_position) select exactly the same values in the same order.
// ---------------------------------------------------------------------------

class MaterializationEquivalence
    : public ::testing::TestWithParam<std::tuple<int, CmpOp>> {};

TEST_P(MaterializationEquivalence, EarlyEqualsLate) {
  const auto [seed, op] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const size_t n = 500 + static_cast<size_t>(rng.Uniform(0, 1000));
  std::vector<int32_t> values(n), payload(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<int32_t>(rng.Uniform(-50, 50));
    payload[i] = static_cast<int32_t>(rng.Uniform(-1000, 1000));
  }
  const int64_t lo = rng.Uniform(-30, 10);
  const int64_t hi = lo + static_cast<int64_t>(rng.Uniform(0, 40));

  Rig rig;
  BufferId v = rig.Push(values);
  BufferId p = rig.Push(payload);

  // Early: bitmap + materialize.
  BufferId bitmap = rig.Alloc(bit_util::BytesForBits(n));
  BufferId out_early = rig.Alloc(n * 4);
  BufferId count_early = rig.Alloc(8);
  ASSERT_TRUE(rig.dev()
                  ->Execute(kernels::MakeFilterBitmap(
                      v, bitmap, op, ElementType::kInt32, lo, hi, false, n))
                  .ok());
  ASSERT_TRUE(rig.dev()
                  ->Execute(kernels::MakeMaterialize(p, bitmap, out_early,
                                                     count_early,
                                                     ElementType::kInt32, n))
                  .ok());

  // Late: positions + gather.
  BufferId positions = rig.Alloc(n * 4);
  BufferId count_late = rig.Alloc(8);
  BufferId out_late = rig.Alloc(n * 4);
  ASSERT_TRUE(rig.dev()
                  ->Execute(kernels::MakeFilterPosition(
                      v, positions, count_late, op, ElementType::kInt32, lo,
                      hi, n))
                  .ok());
  ASSERT_TRUE(rig.dev()
                  ->Execute(kernels::MakeMaterializePosition(
                      p, positions, out_late, ElementType::kInt32, n,
                      count_late))
                  .ok());

  const int64_t k_early = rig.Pull<int64_t>(count_early, 1)[0];
  const int64_t k_late = rig.Pull<int64_t>(count_late, 1)[0];
  ASSERT_EQ(k_early, k_late);
  EXPECT_EQ(rig.Pull<int32_t>(out_early, static_cast<size_t>(k_early)),
            rig.Pull<int32_t>(out_late, static_cast<size_t>(k_late)));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByOp, MaterializationEquivalence,
    ::testing::Combine(::testing::Range(1, 6),
                       ::testing::Values(CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                                         CmpOp::kGe, CmpOp::kEq, CmpOp::kNe,
                                         CmpOp::kBetween, CmpOp::kInPair)));

// ---------------------------------------------------------------------------
// Property 2: hash build + probe equals a nested-loop join on random data
// with duplicate keys, for both probe modes.
// ---------------------------------------------------------------------------

class JoinEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalence, ProbeEqualsNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const size_t n_build = 64 + static_cast<size_t>(rng.Uniform(0, 200));
  const size_t n_probe = 200 + static_cast<size_t>(rng.Uniform(0, 500));
  const int32_t key_range = 1 + static_cast<int32_t>(rng.Uniform(8, 64));
  std::vector<int32_t> build_keys(n_build), payload(n_build),
      probe_keys(n_probe);
  for (size_t i = 0; i < n_build; ++i) {
    build_keys[i] = static_cast<int32_t>(rng.Uniform(1, key_range));
    payload[i] = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
  }
  for (size_t i = 0; i < n_probe; ++i) {
    probe_keys[i] = static_cast<int32_t>(rng.Uniform(1, key_range * 2));
  }

  for (ProbeMode mode : {ProbeMode::kAll, ProbeMode::kSemi}) {
    Rig rig;
    const size_t slots = HashTableLayout::SlotsFor(n_build);
    BufferId bk = rig.Push(build_keys);
    BufferId pl = rig.Push(payload);
    BufferId pk = rig.Push(probe_keys);
    BufferId table = rig.Alloc(HashTableLayout::BuildTableBytes(slots));
    ASSERT_TRUE(
        rig.dev()
            ->Execute(kernels::MakeFill(table, HashTableLayout::kEmptyKey,
                                        HashTableLayout::BuildTableBytes(slots) /
                                            4))
            .ok());
    ASSERT_TRUE(rig.dev()
                    ->Execute(kernels::MakeHashBuild(bk, pl, table, slots, 0,
                                                     n_build))
                    .ok());
    const size_t cap = n_probe * n_build;
    BufferId left = rig.Alloc(cap * 4);
    BufferId right = rig.Alloc(cap * 4);
    BufferId count = rig.Alloc(8);
    ASSERT_TRUE(rig.dev()
                    ->Execute(kernels::MakeHashProbe(pk, table, left, right,
                                                     count, slots, mode, 0,
                                                     n_probe))
                    .ok());
    const auto k = static_cast<size_t>(rig.Pull<int64_t>(count, 1)[0]);
    auto got_left = rig.Pull<int32_t>(left, k);
    auto got_right = rig.Pull<int32_t>(right, k);

    // Nested-loop reference: multiset of (probe index, payload) pairs for
    // kAll; one match per matching probe key for kSemi.
    std::multiset<std::pair<int32_t, int32_t>> want, got;
    for (size_t i = 0; i < n_probe; ++i) {
      bool matched = false;
      for (size_t j = 0; j < n_build; ++j) {
        if (probe_keys[i] != build_keys[j]) continue;
        if (mode == ProbeMode::kSemi) {
          matched = true;
          break;
        }
        want.emplace(static_cast<int32_t>(i), payload[j]);
      }
      if (mode == ProbeMode::kSemi && matched) {
        want.emplace(static_cast<int32_t>(i), -1);  // payload unspecified
      }
    }
    for (size_t i = 0; i < k; ++i) {
      got.emplace(got_left[i], mode == ProbeMode::kSemi ? -1 : got_right[i]);
    }
    EXPECT_EQ(got, want) << "mode "
                         << (mode == ProbeMode::kSemi ? "semi" : "all");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalence, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Property 3: query results are invariant to chunk size and execution model
// (same device, wildly different schedules).
// ---------------------------------------------------------------------------

class ChunkInvariance : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkInvariance, Q3ResultIndependentOfChunking) {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok());
    return new Catalog(**catalog);
  }();
  static const auto* const kWant = [] {
    auto want = tpch::Q3Reference(*kCatalog, {});
    ADAMANT_CHECK(want.ok());
    return new std::vector<tpch::Q3Row>(*want);
  }();

  Rig rig;
  auto bundle = plan::BuildQ3(*kCatalog, {}, rig.dev_id);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhasePipelined;
  options.chunk_elems = GetParam();
  QueryExecutor executor(&rig.manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << "chunk " << GetParam() << ": "
                         << exec.status().ToString();
  auto got = plan::ExtractQ3(*bundle, *exec, *kCatalog, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *kWant) << "chunk " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkInvariance,
                         ::testing::Values(64, 100, 127, 256, 1000, 4096,
                                           size_t{1} << 20));

// ---------------------------------------------------------------------------
// Property 4: hash aggregation is invariant to input order and chunking
// (associative, commutative accumulation).
// ---------------------------------------------------------------------------

class AggregationInvariance : public ::testing::TestWithParam<int> {};

TEST_P(AggregationInvariance, HashAggMatchesHostForRandomData) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const size_t n = 2000 + static_cast<size_t>(rng.Uniform(0, 3000));
  const int32_t groups = 1 + static_cast<int32_t>(rng.Uniform(1, 64));
  std::vector<int32_t> keys(n);
  std::vector<int64_t> values(n);
  std::unordered_map<int32_t, int64_t> want;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(rng.Uniform(1, groups));
    values[i] = rng.Uniform(-10000, 10000);
    want[keys[i]] += values[i];
  }

  // Through the full executor, chunked, via the logical layer.
  auto catalog = std::make_shared<Catalog>();
  auto table = std::make_shared<Table>("r");
  ASSERT_TRUE(table->AddColumn(Column::FromVector("k", keys)).ok());
  ASSERT_TRUE(table->AddColumn(Column::FromVector("v", values)).ok());
  ASSERT_TRUE(catalog->AddTable(table).ok());

  Rig rig;
  auto root = plan::GroupBy(plan::Scan("r"), "k",
                            {{AggOp::kSum, "v", "total"}}, groups, false);
  auto bundle = plan::LowerPlan(*root, *catalog, rig.dev_id);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 333;  // deliberately not a divisor of n
  QueryExecutor executor(&rig.manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = exec->GroupResults(bundle->nodes.at("total"));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want.size());
  for (const AggGroup& group : *got) {
    EXPECT_EQ(group.acc[0], want.at(group.key)) << "group " << group.key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationInvariance, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Property 5: per-kernel time breakdown sums to the total kernel time.
// ---------------------------------------------------------------------------

TEST(StatsProperties, KernelBreakdownSumsToTotal) {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok());
    return new Catalog(**catalog);
  }();
  Rig rig;
  auto bundle = plan::BuildQ6(*kCatalog, {}, rig.dev_id);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 512;
  QueryExecutor executor(&rig.manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok());
  const auto& dev = exec->stats.devices[static_cast<size_t>(rig.dev_id)];
  double sum = 0;
  for (const auto& [name, us] : dev.kernel_body_by_name) sum += us;
  EXPECT_NEAR(sum, dev.kernel_body_us, 1e-6);
  EXPECT_GT(dev.kernel_body_by_name.count("filter_bitmap"), 0u);
  EXPECT_GT(dev.kernel_body_by_name.count("materialize"), 0u);
  EXPECT_GT(dev.kernel_body_by_name.count("map"), 0u);
  EXPECT_GT(dev.kernel_body_by_name.count("agg_block"), 0u);
}

}  // namespace
}  // namespace adamant
