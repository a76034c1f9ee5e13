// Degenerate-input edge cases: empty filter results, zero-row streams
// flowing through whole pipelines, single-element inputs, chunk boundaries
// at exact multiples, and empty hash tables.

#include <gtest/gtest.h>

#include <numeric>

#include "adamant/adamant.h"
#include "task/hash_table.h"

namespace adamant {
namespace {

struct Rig {
  DeviceManager manager;
  DeviceId gpu = 0;

  Rig() {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
    ADAMANT_CHECK(device.ok());
    gpu = *device;
    ADAMANT_CHECK(BindStandardKernels(manager.device(gpu)).ok());
  }

  Result<QueryExecution> Run(PrimitiveGraph* graph, size_t chunk,
                             ExecutionModelKind model =
                                 ExecutionModelKind::kChunked) {
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = chunk;
    QueryExecutor executor(&manager);
    return executor.Run(graph, options);
  }
};

/// filter(v < limit) -> materialize -> sum over an iota column.
struct SumPlan {
  PrimitiveGraph graph;
  int agg = -1;

  SumPlan(DeviceId device, int32_t n, int32_t limit) {
    std::vector<int32_t> values(static_cast<size_t>(n));
    std::iota(values.begin(), values.end(), 0);
    auto col = Column::FromVector("v", values);
    NodeConfig fcfg;
    fcfg.cmp_op = CmpOp::kLt;
    fcfg.lo = limit;
    int f = graph.AddNode(PrimitiveKind::kFilterBitmap, device, fcfg);
    int m = graph.AddNode(PrimitiveKind::kMaterialize, device, {});
    NodeConfig acfg;
    acfg.agg_op = AggOp::kSum;
    agg = graph.AddNode(PrimitiveKind::kAggBlock, device, acfg);
    EXPECT_TRUE(graph.ConnectScan(col, f, 0).ok());
    EXPECT_TRUE(graph.ConnectScan(col, m, 0).ok());
    EXPECT_TRUE(graph.Connect(f, 0, m, 1).ok());
    EXPECT_TRUE(graph.Connect(m, 0, agg, 0).ok());
  }
};

TEST(EdgeCases, NoRowSurvivesTheFilter) {
  Rig rig;
  for (auto model :
       {ExecutionModelKind::kOperatorAtATime, ExecutionModelKind::kChunked,
        ExecutionModelKind::kFourPhasePipelined}) {
    SumPlan plan(rig.gpu, 1000, /*limit=*/0);  // nothing matches
    auto exec = rig.Run(&plan.graph, 128, model);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(*exec->AggValue(plan.agg), 0) << ExecutionModelName(model);
  }
}

TEST(EdgeCases, SingleRowInput) {
  Rig rig;
  SumPlan plan(rig.gpu, 1, 10);
  auto exec = rig.Run(&plan.graph, 128);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(*exec->AggValue(plan.agg), 0);  // the single value is 0
  EXPECT_EQ(exec->stats.chunks, 1u);
}

TEST(EdgeCases, ChunkExactlyDividesInput) {
  Rig rig;
  SumPlan plan(rig.gpu, 1024, 1024);
  auto exec = rig.Run(&plan.graph, 256);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.chunks, 4u);
  EXPECT_EQ(*exec->AggValue(plan.agg), int64_t{1023} * 1024 / 2);
}

TEST(EdgeCases, ChunkLargerThanInput) {
  Rig rig;
  SumPlan plan(rig.gpu, 100, 100);
  auto exec = rig.Run(&plan.graph, 1 << 20);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.chunks, 1u);
  EXPECT_EQ(*exec->AggValue(plan.agg), int64_t{99} * 100 / 2);
}

TEST(EdgeCases, ChunkOfOneElement) {
  Rig rig;
  SumPlan plan(rig.gpu, 37, 37);
  auto exec = rig.Run(&plan.graph, 1);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.chunks, 37u);
  EXPECT_EQ(*exec->AggValue(plan.agg), int64_t{36} * 37 / 2);
}

TEST(EdgeCases, ProbeAgainstEmptyHashTable) {
  // Build side's filter rejects everything: the table stays empty and every
  // probe misses; downstream aggregation sees zero rows.
  Rig rig;
  std::vector<int32_t> build_keys(100), probe_keys(200);
  std::iota(build_keys.begin(), build_keys.end(), 1);
  std::iota(probe_keys.begin(), probe_keys.end(), 1);

  PrimitiveGraph graph;
  NodeConfig reject;
  reject.cmp_op = CmpOp::kLt;
  reject.lo = -1000;  // nothing matches
  int f = graph.AddNode(PrimitiveKind::kFilterBitmap, rig.gpu, reject);
  int m = graph.AddNode(PrimitiveKind::kMaterialize, rig.gpu, {});
  NodeConfig build_cfg;
  build_cfg.expected_build_rows = 100;
  int build = graph.AddNode(PrimitiveKind::kHashBuild, rig.gpu, build_cfg);
  NodeConfig probe_cfg;
  int probe = graph.AddNode(PrimitiveKind::kHashProbe, rig.gpu, probe_cfg);
  NodeConfig agg_cfg;
  agg_cfg.agg_ops = {AggOp::kCount};
  agg_cfg.expected_build_rows = 16;
  agg_cfg.build_rows_scale_with_data = false;
  int agg = graph.AddNode(PrimitiveKind::kHashAgg, rig.gpu, agg_cfg);

  auto bcol = Column::FromVector("b", build_keys);
  auto pcol = Column::FromVector("p", probe_keys);
  ASSERT_TRUE(graph.ConnectScan(bcol, f, 0).ok());
  ASSERT_TRUE(graph.ConnectScan(bcol, m, 0).ok());
  ASSERT_TRUE(graph.Connect(f, 0, m, 1).ok());
  ASSERT_TRUE(graph.Connect(m, 0, build, 0).ok());
  ASSERT_TRUE(graph.ConnectScan(pcol, probe, 0).ok());
  ASSERT_TRUE(graph.Connect(build, 0, probe, 1).ok());
  ASSERT_TRUE(graph.Connect(probe, 1, agg, 0).ok());

  auto exec = rig.Run(&graph, 64);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto groups = exec->GroupResults(agg);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

TEST(EdgeCases, TerminalFilterWithNoMatchesYieldsEmptyParts) {
  Rig rig;
  std::vector<int32_t> values(500, 7);
  PrimitiveGraph graph;
  NodeConfig fcfg;
  fcfg.cmp_op = CmpOp::kEq;
  fcfg.lo = 9;  // never
  int f = graph.AddNode(PrimitiveKind::kFilterPosition, rig.gpu, fcfg);
  ASSERT_TRUE(graph.ConnectScan(Column::FromVector("v", values), f, 0).ok());
  auto exec = rig.Run(&graph, 100);
  ASSERT_TRUE(exec.ok());
  auto output = exec->Output(f);
  ASSERT_TRUE(output.ok());
  ASSERT_EQ((*output)->parts.size(), 5u);
  for (const auto& part : (*output)->parts) {
    EXPECT_EQ(part.count, 0);
    EXPECT_TRUE(part.data.empty());
  }
}

TEST(EdgeCases, TinyTpchScaleStillConsistent) {
  // The smallest possible catalog (a handful of rows everywhere) must agree
  // with the reference on all queries.
  tpch::TpchConfig config;
  config.scale_factor = 1e-5;  // 1-2 customers, a few orders
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  Rig rig;
  auto bundle = plan::BuildQ6(**catalog, {}, rig.gpu);
  ASSERT_TRUE(bundle.ok());
  auto exec = rig.Run(bundle->graph.get(), 16);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*plan::ExtractQ6(*bundle, *exec),
            *tpch::Q6Reference(**catalog, {}));

  auto q4 = plan::BuildQ4(**catalog, {}, rig.gpu);
  ASSERT_TRUE(q4.ok());
  auto exec4 = rig.Run(q4->graph.get(), 16);
  ASSERT_TRUE(exec4.ok()) << exec4.status().ToString();
  EXPECT_EQ(*plan::ExtractQ4(*q4, *exec4), *tpch::Q4Reference(**catalog, {}));
}

TEST(EdgeCases, MinMaxAggregatesOverNegativeValues) {
  Rig rig;
  std::vector<int32_t> values = {-5, 3, -9, 0, 7, -1};
  for (auto [op, want] : std::vector<std::pair<AggOp, int64_t>>{
           {AggOp::kMin, -9}, {AggOp::kMax, 7}}) {
    PrimitiveGraph graph;
    NodeConfig acfg;
    acfg.agg_op = op;
    int agg = graph.AddNode(PrimitiveKind::kAggBlock, rig.gpu, acfg);
    ASSERT_TRUE(
        graph.ConnectScan(Column::FromVector("v", values), agg, 0).ok());
    // Chunked: the identity re-initialization across chunks must not leak
    // into the result (min of a later chunk vs earlier accumulator).
    auto exec = rig.Run(&graph, 2);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(*exec->AggValue(agg), want);
  }
}

}  // namespace
}  // namespace adamant
