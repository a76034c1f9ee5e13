// Behavioural tests of the query executor and the four execution models on
// small synthetic plans: correctness, chunk accounting, larger-than-memory
// behaviour, error propagation, cross-device routing, timing relations.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "device/device_manager.h"
#include "plan/tpch_plans.h"
#include "runtime/executor.h"
#include "runtime/primitive_graph.h"
#include "task/kernel_registry.h"
#include "tpch/tpch_gen.h"

namespace adamant {
namespace {

ColumnPtr Iota(const std::string& name, int32_t n) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return Column::FromVector(name, v);
}

/// sum of values < `limit` over an iota column — one pipeline:
/// filter -> materialize -> agg_block.
struct SumPlan {
  PrimitiveGraph graph;
  int agg = -1;

  explicit SumPlan(DeviceId device, int32_t n, int32_t limit,
                   double selectivity = 1.0) {
    NodeConfig fcfg;
    fcfg.cmp_op = CmpOp::kLt;
    fcfg.lo = limit;
    int f = graph.AddNode(PrimitiveKind::kFilterBitmap, device, fcfg);
    NodeConfig mcfg;
    mcfg.selectivity = selectivity;
    int m = graph.AddNode(PrimitiveKind::kMaterialize, device, mcfg);
    NodeConfig acfg;
    acfg.agg_op = AggOp::kSum;
    agg = graph.AddNode(PrimitiveKind::kAggBlock, device, acfg);
    auto col = Iota("v", n);
    EXPECT_TRUE(graph.ConnectScan(col, f, 0).ok());
    EXPECT_TRUE(graph.ConnectScan(col, m, 0).ok());
    EXPECT_TRUE(graph.Connect(f, 0, m, 1).ok());
    EXPECT_TRUE(graph.Connect(m, 0, agg, 0).ok());
  }
};

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gpu = manager_.AddDriver(sim::DriverKind::kCudaGpu);
    auto cpu = manager_.AddDriver(sim::DriverKind::kOpenMpCpu);
    ASSERT_TRUE(gpu.ok() && cpu.ok());
    gpu_ = *gpu;
    cpu_ = *cpu;
    ASSERT_TRUE(BindStandardKernels(manager_.device(gpu_)).ok());
    ASSERT_TRUE(BindStandardKernels(manager_.device(cpu_)).ok());
  }

  DeviceManager manager_;
  DeviceId gpu_ = 0;
  DeviceId cpu_ = 0;
};

TEST_F(ExecutorTest, SumPlanAllModels) {
  const int32_t n = 1000, limit = 700;
  const int64_t expected = int64_t{699} * 700 / 2;
  for (auto model :
       {ExecutionModelKind::kOperatorAtATime, ExecutionModelKind::kChunked,
        ExecutionModelKind::kPipelined, ExecutionModelKind::kFourPhaseChunked,
        ExecutionModelKind::kFourPhasePipelined}) {
    SumPlan plan(gpu_, n, limit);
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = 128;
    QueryExecutor executor(&manager_);
    auto exec = executor.Run(&plan.graph, options);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    ASSERT_TRUE(exec->AggValue(plan.agg).ok());
    EXPECT_EQ(*exec->AggValue(plan.agg), expected) << ExecutionModelName(model);
  }
}

TEST_F(ExecutorTest, ChunkCountMatchesInput) {
  SumPlan plan(gpu_, 1000, 1000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 300;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.chunks, 4u) << "ceil(1000/300)";
}

TEST_F(ExecutorTest, OaatRunsSingleChunk) {
  SumPlan plan(gpu_, 1000, 1000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kOperatorAtATime;
  options.chunk_elems = 10;  // ignored by OAAT
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.chunks, 1u);
}

TEST_F(ExecutorTest, ProgressPointersReachInputSize) {
  SumPlan plan(gpu_, 1000, 1000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 256;
  QueryExecutor executor(&manager_);
  ASSERT_TRUE(executor.Run(&plan.graph, options).ok());
  for (const GraphEdge& edge : plan.graph.edges()) {
    if (!edge.is_scan()) continue;
    EXPECT_EQ(edge.fetched_until, 1000u);
    EXPECT_EQ(edge.processed_until, 1000u);
  }
}

// The paper's Section IV-A: OAAT cannot scale beyond device memory, chunked
// execution can.
TEST_F(ExecutorTest, LargerThanMemoryOaatFailsChunkedSucceeds) {
  // Inflate 4 KiB of actual data into ~40 GiB nominal (capacity is 11 GiB).
  manager_.SetDataScale(1e7);
  SumPlan plan(gpu_, 1000, 1000);
  QueryExecutor executor(&manager_);

  ExecutionOptions oaat;
  oaat.model = ExecutionModelKind::kOperatorAtATime;
  EXPECT_TRUE(executor.Run(&plan.graph, oaat).status().IsOutOfMemory());

  SumPlan chunked_plan(gpu_, 1000, 1000);
  ExecutionOptions chunked;
  chunked.model = ExecutionModelKind::kChunked;
  chunked.chunk_elems = size_t{1} << 25;  // nominal, divided by scale
  auto exec = executor.Run(&chunked_plan.graph, chunked);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(chunked_plan.agg), int64_t{999} * 1000 / 2);
  manager_.SetDataScale(1.0);
}

TEST_F(ExecutorTest, OomReleasesEverything) {
  manager_.SetDataScale(1e7);
  SumPlan plan(gpu_, 1000, 1000);
  QueryExecutor executor(&manager_);
  ExecutionOptions oaat;
  oaat.model = ExecutionModelKind::kOperatorAtATime;
  ASSERT_TRUE(executor.Run(&plan.graph, oaat).status().IsOutOfMemory());
  EXPECT_EQ(manager_.device(gpu_)->device_arena().used(), 0u)
      << "failed runs must not leak device memory";
  manager_.SetDataScale(1.0);
}

TEST_F(ExecutorTest, SelectivityUnderestimateSurfacesOverflow) {
  // Estimate 1% but everything matches: the materialize output overflows.
  SumPlan plan(gpu_, 10000, 10000, /*selectivity=*/0.01);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 10000;
  QueryExecutor executor(&manager_);
  EXPECT_TRUE(executor.Run(&plan.graph, options).status().IsExecutionError());
}

TEST_F(ExecutorTest, TerminalStreamingOutputCollected) {
  // A bare filter_position plan: per-chunk position lists come back.
  PrimitiveGraph graph;
  NodeConfig fcfg;
  fcfg.cmp_op = CmpOp::kGe;
  fcfg.lo = 900;
  int f = graph.AddNode(PrimitiveKind::kFilterPosition, gpu_, fcfg);
  ASSERT_TRUE(graph.ConnectScan(Iota("v", 1000), f, 0).ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 250;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&graph, options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto output = exec->Output(f);
  ASSERT_TRUE(output.ok());
  ASSERT_EQ((*output)->parts.size(), 4u);
  // Chunks 0-2 contain no matches; chunk 3 (rows 750..999) has 100.
  EXPECT_EQ((*output)->parts[0].count, 0);
  EXPECT_EQ((*output)->parts[3].count, 100);
  EXPECT_EQ((*output)->parts[3].base_row, 750u);
  const auto* positions =
      reinterpret_cast<const int32_t*>((*output)->parts[3].data.data());
  EXPECT_EQ(positions[0], 150) << "chunk-local position of row 900";
}

TEST_F(ExecutorTest, CrossDevicePipelineRoutesThroughHost) {
  // Materialize on the CPU feeding aggregation on the GPU.
  PrimitiveGraph graph;
  NodeConfig fcfg;
  fcfg.cmp_op = CmpOp::kLt;
  fcfg.lo = 500;
  int f = graph.AddNode(PrimitiveKind::kFilterBitmap, cpu_, fcfg);
  int m = graph.AddNode(PrimitiveKind::kMaterialize, cpu_, {});
  NodeConfig acfg;
  acfg.agg_op = AggOp::kSum;
  int agg = graph.AddNode(PrimitiveKind::kAggBlock, gpu_, acfg);
  auto col = Iota("v", 1000);
  ASSERT_TRUE(graph.ConnectScan(col, f, 0).ok());
  ASSERT_TRUE(graph.ConnectScan(col, m, 0).ok());
  ASSERT_TRUE(graph.Connect(f, 0, m, 1).ok());
  ASSERT_TRUE(graph.Connect(m, 0, agg, 0).ok());

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 400;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&graph, options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(agg), int64_t{499} * 500 / 2);
  EXPECT_GT(exec->stats.bytes_d2h, 0u)
      << "cross-device edges round-trip through the host";
}

TEST_F(ExecutorTest, ResultReadsCountAsDeviceToHostBytes) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  auto bundle = plan::BuildQ6(**catalog, {}, gpu_);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(bundle->graph.get(), {});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // Q6's one result, an int64 revenue, is every byte the run reads back.
  EXPECT_EQ(exec->stats.bytes_d2h, sizeof(int64_t));
}

TEST_F(ExecutorTest, PipelinedNotSlowerThanChunked) {
  auto elapsed = [&](ExecutionModelKind model) {
    SumPlan plan(gpu_, 100000, 100000);
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = 4096;
    QueryExecutor executor(&manager_);
    auto exec = executor.Run(&plan.graph, options);
    EXPECT_TRUE(exec.ok());
    return exec->stats.elapsed_us;
  };
  const double chunked = elapsed(ExecutionModelKind::kChunked);
  const double pipelined = elapsed(ExecutionModelKind::kPipelined);
  const double four_phase = elapsed(ExecutionModelKind::kFourPhaseChunked);
  EXPECT_LT(pipelined, chunked) << "overlap must help a transfer-bound plan";
  EXPECT_LT(four_phase, chunked) << "pinned transfers must help";
}

TEST_F(ExecutorTest, PipelineRingDepthBoundsOverlap) {
  // A single-column, transfer-dominated pipeline (nominal scaling makes the
  // chunk transfer outweigh the kernels). Depth 1: the lone staging slot
  // serializes the next transfer behind the previous chunk's last reader
  // (chunked-like). Depth 2+: copy/compute overlap returns. Results are
  // identical regardless. (Multi-column pipelines like Q6 already overlap
  // within their own transfer block, so depth barely moves them — see
  // bench_ablation's ring panel.)
  manager_.SetDataScale(1000.0);
  auto run = [&](size_t depth) {
    SumPlan plan(gpu_, 100000, 100000);
    ExecutionOptions options;
    options.model = ExecutionModelKind::kPipelined;
    options.chunk_elems = 4096 * 1000;  // nominal; 4096 actual per chunk
    options.pipeline_depth = depth;
    QueryExecutor executor(&manager_);
    auto exec = executor.Run(&plan.graph, options);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(*exec->AggValue(plan.agg), int64_t{99999} * 100000 / 2);
    return exec->stats.elapsed_us;
  };
  const double depth1 = run(1);
  const double depth2 = run(2);
  const double depth4 = run(4);
  const double unbounded = run(0);
  manager_.SetDataScale(1.0);
  EXPECT_GT(depth1, depth2 * 1.05) << "double buffering must beat one slot";
  // Past depth 2 the schedule is already fully overlapped; deeper rings only
  // add a few microseconds of staging allocations.
  EXPECT_NEAR(depth2, depth4, depth2 * 0.01);
  EXPECT_NEAR(depth4, unbounded, depth4 * 0.05)
      << "deeper rings approach the unbounded transfer thread";
}

TEST_F(ExecutorTest, RingReusesBuffersInsteadOfReallocating) {
  SumPlan plan(gpu_, 10000, 10000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kPipelined;
  options.chunk_elems = 1000;
  options.pipeline_depth = 2;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  // 10 chunks, 1 distinct scan column: 2 staging allocations instead of 10.
  // (Intermediates are still allocated per chunk.)
  const auto& dev = exec->stats.devices[static_cast<size_t>(gpu_)];
  SumPlan unbounded_plan(gpu_, 10000, 10000);
  options.pipeline_depth = 0;
  auto unbounded = executor.Run(&unbounded_plan.graph, options);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_LT(dev.prepare_calls,
            unbounded->stats.devices[static_cast<size_t>(gpu_)].prepare_calls);
}

TEST_F(ExecutorTest, FourPhaseUsesPinnedMemory) {
  SumPlan plan(gpu_, 10000, 10000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhaseChunked;
  options.chunk_elems = 1024;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  EXPECT_GT(exec->stats.devices[static_cast<size_t>(gpu_)].pinned_mem_high_water,
            0u);

  SumPlan plain(gpu_, 10000, 10000);
  options.model = ExecutionModelKind::kChunked;
  auto exec2 = executor.Run(&plain.graph, options);
  ASSERT_TRUE(exec2.ok());
  EXPECT_EQ(
      exec2->stats.devices[static_cast<size_t>(gpu_)].pinned_mem_high_water,
      0u);
}

TEST_F(ExecutorTest, StatsInternallyConsistent) {
  SumPlan plan(gpu_, 50000, 25000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 8192;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  const QueryStats& stats = exec->stats;
  EXPECT_GT(stats.elapsed_us, 0);
  EXPECT_GT(stats.kernel_body_us, 0);
  EXPECT_LE(stats.kernel_body_us, stats.elapsed_us);
  const DeviceRunStats& dev = stats.devices[static_cast<size_t>(gpu_)];
  EXPECT_GE(dev.compute_busy_us, dev.kernel_body_us)
      << "engine busy time includes launch overhead";
  EXPECT_LE(dev.h2d_busy_us, stats.elapsed_us);
  EXPECT_GT(dev.execute_calls, 0u);
  EXPECT_GT(stats.bytes_h2d, 0u);
  EXPECT_GT(dev.device_mem_high_water, 0u);
}

TEST_F(ExecutorTest, SharedScanColumnTransferredOncePerChunk) {
  // SumPlan scans the same column into filter and materialize.
  SumPlan plan(gpu_, 1000, 1000);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 1000;
  QueryExecutor executor(&manager_);
  auto exec = executor.Run(&plan.graph, options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.bytes_h2d, 4000u)
      << "one 4-byte x 1000 transfer despite two scan edges";
}

TEST_F(ExecutorTest, PrefixSumChunkedRejectedOaatWorks) {
  auto build = [&](PrimitiveGraph* graph) {
    int p = graph->AddNode(PrimitiveKind::kPrefixSum, gpu_, {});
    ASSERT_TRUE(graph->ConnectScan(Iota("v", 100), p, 0).ok());
  };
  QueryExecutor executor(&manager_);
  {
    PrimitiveGraph graph;
    build(&graph);
    ExecutionOptions options;
    options.model = ExecutionModelKind::kChunked;
    options.chunk_elems = 10;
    EXPECT_TRUE(executor.Run(&graph, options).status().IsNotSupported());
  }
  {
    PrimitiveGraph graph;
    build(&graph);
    ExecutionOptions options;
    options.model = ExecutionModelKind::kOperatorAtATime;
    EXPECT_TRUE(executor.Run(&graph, options).ok());
  }
}

TEST_F(ExecutorTest, HashNodesRequireExpectedRows) {
  PrimitiveGraph graph;
  NodeConfig cfg;  // expected_build_rows left at 0
  int b = graph.AddNode(PrimitiveKind::kHashBuild, gpu_, cfg);
  ASSERT_TRUE(graph.ConnectScan(Iota("k", 10), b, 0).ok());
  QueryExecutor executor(&manager_);
  ExecutionOptions options;
  EXPECT_TRUE(executor.Run(&graph, options).status().IsInvalidArgument());
}

TEST_F(ExecutorTest, NullAndEmptyInputsRejected) {
  QueryExecutor executor(&manager_);
  EXPECT_TRUE(executor.Run(nullptr, {}).status().IsInvalidArgument());
  DeviceManager empty;
  QueryExecutor no_devices(&empty);
  PrimitiveGraph graph;
  graph.AddNode(PrimitiveKind::kMap, 0, {});
  EXPECT_TRUE(no_devices.Run(&graph, {}).status().IsInvalidArgument());
}

TEST_F(ExecutorTest, UnknownDeviceAnnotationFails) {
  SumPlan plan(/*device=*/42, 100, 100);
  QueryExecutor executor(&manager_);
  EXPECT_TRUE(executor.Run(&plan.graph, {}).status().IsNotFound());
}

TEST_F(ExecutorTest, RerunningSamePlanIsDeterministic) {
  SumPlan plan(gpu_, 5000, 2500);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhasePipelined;
  options.chunk_elems = 512;
  QueryExecutor executor(&manager_);
  auto first = executor.Run(&plan.graph, options);
  auto second = executor.Run(&plan.graph, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first->AggValue(plan.agg), *second->AggValue(plan.agg));
  EXPECT_DOUBLE_EQ(first->stats.elapsed_us, second->stats.elapsed_us)
      << "the simulation is bit-deterministic";
}

}  // namespace
}  // namespace adamant
