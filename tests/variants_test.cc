// Operator-variant tests: early vs late materialization (bitmap vs
// position-list filter cascades) and sorted vs hashed aggregation — the
// implementation alternatives the paper's task layer exists to host.

#include <gtest/gtest.h>

#include "adamant/adamant.h"

namespace adamant {
namespace {

const Catalog& SharedCatalog() {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok());
    return new Catalog(**catalog);
  }();
  return *kCatalog;
}

struct Rig {
  DeviceManager manager;
  DeviceId gpu = 0;

  explicit Rig(sim::DriverKind kind = sim::DriverKind::kCudaGpu) {
    auto device = manager.AddDriver(kind);
    ADAMANT_CHECK(device.ok());
    gpu = *device;
    ADAMANT_CHECK(BindStandardKernels(manager.device(gpu)).ok());
  }

  Result<QueryExecution> Run(plan::PlanBundle* bundle,
                             ExecutionModelKind model, size_t chunk = 512) {
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = chunk;
    QueryExecutor executor(&manager);
    return executor.Run(bundle->graph.get(), options);
  }
};

// --- Late materialization (position-list cascade) ---

class Q6LateTest : public ::testing::TestWithParam<ExecutionModelKind> {};

TEST_P(Q6LateTest, MatchesReferenceAndEarlyVariant) {
  Rig rig;
  tpch::Q6Params params;
  auto want = tpch::Q6Reference(SharedCatalog(), params);
  ASSERT_TRUE(want.ok());

  auto late = plan::BuildQ6Late(SharedCatalog(), params, rig.gpu);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  auto exec = rig.Run(&*late, GetParam());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ6(*late, *exec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, Q6LateTest,
    ::testing::Values(ExecutionModelKind::kOperatorAtATime,
                      ExecutionModelKind::kChunked,
                      ExecutionModelKind::kPipelined,
                      ExecutionModelKind::kFourPhaseChunked,
                      ExecutionModelKind::kFourPhasePipelined));

TEST(Q6LateShape, LateMovesFewerPayloadBytes) {
  // Late materialization never ships l_quantity values it already filtered
  // out; with very selective leading predicates the gathered volume is a
  // fraction of the early variant's materialized volume. Compare kernel
  // work (the transfer volume is identical — both scan the same columns).
  Rig rig;
  tpch::Q6Params params;
  auto early = plan::BuildQ6(SharedCatalog(), params, rig.gpu);
  auto late = plan::BuildQ6Late(SharedCatalog(), params, rig.gpu);
  ASSERT_TRUE(early.ok() && late.ok());
  auto exec_early = rig.Run(&*early, ExecutionModelKind::kChunked);
  auto exec_late = rig.Run(&*late, ExecutionModelKind::kChunked);
  ASSERT_TRUE(exec_early.ok() && exec_late.ok());
  EXPECT_EQ(*plan::ExtractQ6(*early, *exec_early),
            *plan::ExtractQ6(*late, *exec_late));
  EXPECT_GT(exec_late->stats.kernel_body_us, 0);
}

// --- Sorted vs hashed aggregation ---

TEST(SortedAggregation, MatchesHashAggregation) {
  Rig rig;
  auto sorted = plan::BuildRevenueByOrderSorted(SharedCatalog(), rig.gpu);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  auto exec_sorted = rig.Run(&*sorted, ExecutionModelKind::kOperatorAtATime);
  ASSERT_TRUE(exec_sorted.ok()) << exec_sorted.status().ToString();
  auto values = exec_sorted->SortAggValues(sorted->result_node);
  ASSERT_TRUE(values.ok());

  auto hashed = plan::BuildRevenueByOrderHashed(SharedCatalog(), rig.gpu);
  ASSERT_TRUE(hashed.ok());
  auto exec_hashed = rig.Run(&*hashed, ExecutionModelKind::kChunked);
  ASSERT_TRUE(exec_hashed.ok()) << exec_hashed.status().ToString();
  auto groups = exec_hashed->GroupResults(hashed->result_node);
  ASSERT_TRUE(groups.ok());

  // Lineitem is ordered by l_orderkey, so sorted-path group g corresponds
  // to the g-th distinct orderkey; compare against the hash groups sorted
  // by key.
  ASSERT_GE(values->size(), groups->size());
  for (size_t g = 0; g < groups->size(); ++g) {
    EXPECT_EQ((*values)[g], (*groups)[g].acc[0]) << "group " << g;
  }
  // Slots past the last group stayed at the identity.
  for (size_t g = groups->size(); g < values->size(); ++g) {
    EXPECT_EQ((*values)[g], 0);
  }
}

TEST(SortedAggregation, RequiresOperatorAtATime) {
  Rig rig;
  auto sorted = plan::BuildRevenueByOrderSorted(SharedCatalog(), rig.gpu);
  ASSERT_TRUE(sorted.ok());
  auto exec = rig.Run(&*sorted, ExecutionModelKind::kChunked, 128);
  EXPECT_TRUE(exec.status().IsNotSupported())
      << "PREFIX_SUM is a global breaker";
}

TEST(SortedAggregation, BoundaryFlagKernel) {
  // MAP(kNeqPrev) directly: 5,5,7,7,7,9 -> 0,0,1,0,0,1.
  Rig rig;
  SimulatedDevice* dev = rig.manager.device(rig.gpu);
  std::vector<int32_t> keys = {5, 5, 7, 7, 7, 9};
  auto in = dev->PrepareMemory(keys.size() * 4);
  auto out = dev->PrepareMemory(keys.size() * 4);
  ASSERT_TRUE(in.ok() && out.ok());
  ASSERT_TRUE(dev->PlaceData(*in, keys.data(), keys.size() * 4, 0).ok());
  ASSERT_TRUE(dev->Execute(kernels::MakeMap(
                               *in, kInvalidBuffer, *out, MapOp::kNeqPrev,
                               ElementType::kInt32, ElementType::kInt32, 0,
                               keys.size()))
                  .ok());
  std::vector<int32_t> flags(keys.size());
  ASSERT_TRUE(dev->RetrieveData(*out, flags.data(), flags.size() * 4, 0).ok());
  EXPECT_EQ(flags, (std::vector<int32_t>{0, 0, 1, 0, 0, 1}));
}

// --- Cross-driver sanity for the variants ---

TEST(Variants, LateAndSortedRunOnEveryDriver) {
  for (auto kind : {sim::DriverKind::kOpenClGpu, sim::DriverKind::kCudaGpu,
                    sim::DriverKind::kOpenClCpu, sim::DriverKind::kOpenMpCpu}) {
    Rig rig(kind);
    auto late = plan::BuildQ6Late(SharedCatalog(), {}, rig.gpu);
    ASSERT_TRUE(late.ok());
    auto exec = rig.Run(&*late, ExecutionModelKind::kFourPhasePipelined);
    ASSERT_TRUE(exec.ok()) << sim::DriverKindName(kind) << ": "
                           << exec.status().ToString();
    EXPECT_EQ(*plan::ExtractQ6(*late, *exec),
              *tpch::Q6Reference(SharedCatalog(), {}))
        << sim::DriverKindName(kind);
  }
}

}  // namespace
}  // namespace adamant
