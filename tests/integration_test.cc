// Integration: every evaluated TPC-H query, on every driver, under every
// execution model, bit-compared against the scalar host reference.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "adamant/adamant.h"

namespace adamant {
namespace {

struct TpchFixture {
  std::shared_ptr<Catalog> catalog;

  static const TpchFixture& Get() {
    static const TpchFixture* const kFixture = [] {
      auto* fixture = new TpchFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      config.include_dimension_tables = true;  // Q14 joins against part
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

class QueryMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<sim::DriverKind, ExecutionModelKind>> {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<DeviceManager>();
    auto device = manager_->AddDriver(std::get<0>(GetParam()));
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    device_ = *device;
    ASSERT_TRUE(BindStandardKernels(manager_->device(device_)).ok());
    options_.model = std::get<1>(GetParam());
    options_.chunk_elems = 512;  // many chunks even on the tiny test scale
  }

  Result<QueryExecution> Execute(PrimitiveGraph* graph) {
    QueryExecutor executor(manager_.get());
    return executor.Run(graph, options_);
  }

  std::unique_ptr<DeviceManager> manager_;
  DeviceId device_ = 0;
  ExecutionOptions options_;
};

TEST_P(QueryMatrixTest, Q6MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q6Params params;
  auto bundle = plan::BuildQ6(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ6(*bundle, *exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q6Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q4MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q4Params params;
  auto bundle = plan::BuildQ4(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ4(*bundle, *exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q4Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q3MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q3Params params;
  auto bundle = plan::BuildQ3(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ3(*bundle, *exec, catalog, params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q3Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q1MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q1Params params;
  auto bundle = plan::BuildQ1(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ1(*bundle, *exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q1Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q5MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q5Params params;
  auto bundle = plan::BuildQ5(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ5(*bundle, *exec, catalog);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q5Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q10MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q10Params params;
  auto bundle = plan::BuildQ10(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ10(*bundle, *exec, params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q10Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q12MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q12Params params;
  auto bundle = plan::BuildQ12(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ12(*bundle, *exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q12Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(QueryMatrixTest, Q14MatchesReference) {
  const auto& catalog = *TpchFixture::Get().catalog;
  tpch::Q14Params params;
  auto bundle = plan::BuildQ14(catalog, params, device_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = Execute(bundle->graph.get());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto got = plan::ExtractQ14(*bundle, *exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = tpch::Q14Reference(catalog, params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

INSTANTIATE_TEST_SUITE_P(
    AllDriversAllModels, QueryMatrixTest,
    ::testing::Combine(
        ::testing::Values(sim::DriverKind::kOpenClGpu,
                          sim::DriverKind::kCudaGpu,
                          sim::DriverKind::kOpenClCpu,
                          sim::DriverKind::kOpenMpCpu),
        ::testing::Values(ExecutionModelKind::kOperatorAtATime,
                          ExecutionModelKind::kChunked,
                          ExecutionModelKind::kPipelined,
                          ExecutionModelKind::kFourPhaseChunked,
                          ExecutionModelKind::kFourPhasePipelined)),
    [](const auto& info) {
      return std::string(sim::DriverKindName(std::get<0>(info.param))) + "_" +
             [](ExecutionModelKind m) {
               switch (m) {
                 case ExecutionModelKind::kOperatorAtATime:
                   return "oaat";
                 case ExecutionModelKind::kChunked:
                   return "chunked";
                 case ExecutionModelKind::kPipelined:
                   return "pipelined";
                 case ExecutionModelKind::kFourPhaseChunked:
                   return "fourphase";
                 case ExecutionModelKind::kFourPhasePipelined:
                   return "fourphasepipe";
                 case ExecutionModelKind::kDeviceParallel:
                   return "deviceparallel";
               }
               return "unknown";
             }(std::get<1>(info.param));
    });

// ExtractQ3 joins orderdate/shippriority back from the catalog's orders; a
// group key orders lacks is an Internal error naming the first such key in
// key order.
TEST(ExtractQ3Test, GroupKeyMissingFromOrdersNamesTheFirstInKeyOrder) {
  const auto& catalog = *TpchFixture::Get().catalog;
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  auto bundle = plan::BuildQ3(catalog, {}, *device);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = QueryExecutor(&manager).Run(bundle->graph.get(), {});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto groups = exec->GroupResults(bundle->result_node);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_GE(groups->size(), 3u);

  // Orders without the second and third group keys (TPC-H keys are >= 1).
  auto orders = catalog.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  auto orderkey = (*orders)->GetColumn("o_orderkey");
  ASSERT_TRUE(orderkey.ok());
  const int32_t* keys = (*orderkey)->data<int32_t>();
  std::vector<int32_t> stripped(keys, keys + (*orderkey)->length());
  for (int32_t& key : stripped) {
    if (key == (*groups)[1].first || key == (*groups)[2].first) key = 0;
  }
  auto lacking_orders = std::make_shared<Table>("orders");
  ASSERT_TRUE(lacking_orders
                  ->AddColumn(Column::FromVector("o_orderkey", stripped))
                  .ok());
  for (const char* name : {"o_orderdate", "o_shippriority"}) {
    auto column = (*orders)->GetColumn(name);
    ASSERT_TRUE(column.ok());
    ASSERT_TRUE(lacking_orders->AddColumn(*column).ok());
  }
  Catalog lacking;
  ASSERT_TRUE(lacking.AddTable(lacking_orders).ok());

  auto rows = plan::ExtractQ3(*bundle, *exec, lacking, {});
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsInternal()) << rows.status().ToString();
  EXPECT_EQ(rows.status().message(),
            "Q3 group key " + std::to_string((*groups)[1].first) +
                " not in orders");
}

}  // namespace
}  // namespace adamant
