// Integration: every evaluated TPC-H query, on every driver, under every
// execution model, bit-compared against the scalar host reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
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

// Runs Q3 on one cuda_gpu over the fixture's catalog.
struct Q3Run {
  DeviceManager manager;
  Result<plan::PlanBundle> bundle = Status::Internal("not built");
  Result<QueryExecution> exec = Status::Internal("not run");

  Q3Run() {
    const auto& catalog = *TpchFixture::Get().catalog;
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager.device(*device)).ok());
    bundle = plan::BuildQ3(catalog, {}, *device);
    ADAMANT_CHECK(bundle.ok()) << bundle.status().ToString();
    exec = QueryExecutor(&manager).Run(bundle->graph.get(), {});
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
  }
};

// A catalog holding only an orders table whose three Q3 columns are the
// fixture's rows `rows`, in that order.
Catalog OrdersWithRows(const std::vector<size_t>& rows) {
  auto orders = TpchFixture::Get().catalog->GetTable("orders");
  ADAMANT_CHECK(orders.ok());
  auto table = std::make_shared<Table>("orders");
  for (const char* name : {"o_orderkey", "o_orderdate", "o_shippriority"}) {
    auto column = (*orders)->GetColumn(name);
    ADAMANT_CHECK(column.ok());
    std::vector<int32_t> values;
    for (size_t row : rows) values.push_back((*column)->Value<int32_t>(row));
    ADAMANT_CHECK(table->AddColumn(Column::FromVector(name, values)).ok());
  }
  Catalog catalog;
  ADAMANT_CHECK(catalog.AddTable(table).ok());
  return catalog;
}

std::vector<size_t> AllOrderRows() {
  auto orders = TpchFixture::Get().catalog->GetTable("orders");
  ADAMANT_CHECK(orders.ok());
  std::vector<size_t> rows((*orders)->num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

// ExtractQ3 joins orderdate/shippriority back from the catalog's orders by
// binary search when o_orderkey ascends, and by one pass otherwise: a
// shuffled orders table gives the same rows.
TEST(ExtractQ3Test, ShuffledOrdersGiveTheSameRows) {
  Q3Run run;
  auto sorted = plan::ExtractQ3(*run.bundle, *run.exec,
                                *TpchFixture::Get().catalog, {});
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  auto want = tpch::Q3Reference(*TpchFixture::Get().catalog, {});
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(*sorted, *want);

  std::vector<size_t> rows = AllOrderRows();
  std::mt19937 rng(7);
  std::shuffle(rows.begin(), rows.end(), rng);
  auto shuffled =
      plan::ExtractQ3(*run.bundle, *run.exec, OrdersWithRows(rows), {});
  ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
  EXPECT_EQ(*shuffled, *sorted);
}

// A group key orders lacks is an Internal error naming the first such key
// in key order, on either path: orders that stay sorted with the rows
// dropped, and orders whose keys were zeroed out of order.
TEST(ExtractQ3Test, GroupKeyMissingFromOrdersNamesTheFirstInKeyOrder) {
  Q3Run run;
  auto groups = run.exec->GroupResults(run.bundle->result_node);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_GE(groups->size(), 3u);
  const int32_t second = (*groups)[1].key;
  const int32_t third = (*groups)[2].key;
  const std::string want =
      "Q3 group key " + std::to_string(second) + " not in orders";

  auto orders = TpchFixture::Get().catalog->GetTable("orders");
  ASSERT_TRUE(orders.ok());
  auto orderkey = (*orders)->GetColumn("o_orderkey");
  ASSERT_TRUE(orderkey.ok());
  std::vector<size_t> kept;
  for (size_t row : AllOrderRows()) {
    const int32_t key = (*orderkey)->Value<int32_t>(row);
    if (key != second && key != third) kept.push_back(row);
  }
  auto dropped =
      plan::ExtractQ3(*run.bundle, *run.exec, OrdersWithRows(kept), {});
  ASSERT_FALSE(dropped.ok());
  EXPECT_TRUE(dropped.status().IsInternal()) << dropped.status().ToString();
  EXPECT_EQ(dropped.status().message(), want);

  // Zeroed keys (TPC-H keys are >= 1) leave o_orderkey out of order.
  const int32_t* keys = (*orderkey)->data<int32_t>();
  std::vector<int32_t> stripped(keys, keys + (*orderkey)->length());
  for (int32_t& key : stripped) {
    if (key == second || key == third) key = 0;
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
  auto zeroed = plan::ExtractQ3(*run.bundle, *run.exec, lacking, {});
  ASSERT_FALSE(zeroed.ok());
  EXPECT_TRUE(zeroed.status().IsInternal()) << zeroed.status().ToString();
  EXPECT_EQ(zeroed.status().message(), want);
}

}  // namespace
}  // namespace adamant
