// Tests for the logical plan layer and the lowering pass: structural
// properties of lowered graphs, error handling, placement search, and the
// SQL planner's lowered TPC-H trees against the hand-built primitive graphs.

#include <gtest/gtest.h>

#include <numeric>

#include "adamant/adamant.h"
#include "plan/lowering.h"
#include "plan/placement_optimizer.h"

namespace adamant::plan {
namespace {

/// The logical tree the SQL planner emits for a TPC-H built-in.
LogicalNodePtr PlannedBuiltin(const char* name, const Catalog& catalog) {
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(name);
  ADAMANT_CHECK(builtin != nullptr) << name;
  auto compiled = sql::Compile(builtin->sql, catalog);
  ADAMANT_CHECK(compiled.ok()) << compiled.status().ToString();
  return compiled->plan;
}

std::shared_ptr<Catalog> SmallCatalog() {
  auto catalog = std::make_shared<Catalog>();
  auto table = std::make_shared<Table>("t");
  std::vector<int32_t> keys(100), pct(100);
  std::vector<int64_t> money(100);
  for (int i = 0; i < 100; ++i) {
    keys[static_cast<size_t>(i)] = i % 10;
    pct[static_cast<size_t>(i)] = i % 11;
    money[static_cast<size_t>(i)] = 100 * (i + 1);
  }
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("k", keys)).ok());
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("pct", pct)).ok());
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("money", money)).ok());
  ADAMANT_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

struct Rig {
  DeviceManager manager;
  DeviceId gpu = 0;

  Rig() {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
    ADAMANT_CHECK(device.ok());
    gpu = *device;
    ADAMANT_CHECK(BindStandardKernels(manager.device(gpu)).ok());
  }

  Result<QueryExecution> Run(PlanBundle* bundle,
                             ExecutionModelKind model =
                                 ExecutionModelKind::kChunked,
                             size_t chunk = 32) {
    ExecutionOptions options;
    options.model = model;
    options.chunk_elems = chunk;
    QueryExecutor executor(&manager);
    return executor.Run(bundle->graph.get(), options);
  }
};

// --- Structural lowering behaviour ---

TEST(Lowering, FilterReduceProducesExpectedPrimitives) {
  auto catalog = SmallCatalog();
  Rig rig;
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}),
                     {{AggOp::kSum, "money", "total"}});
  auto bundle = LowerPlan(*root, *catalog, rig.gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  // filter_bitmap + materialize(money) + agg_block.
  std::map<PrimitiveKind, int> kinds;
  for (const GraphNode& node : bundle->graph->nodes()) kinds[node.kind]++;
  EXPECT_EQ(kinds[PrimitiveKind::kFilterBitmap], 1);
  EXPECT_EQ(kinds[PrimitiveKind::kMaterialize], 1);
  EXPECT_EQ(kinds[PrimitiveKind::kAggBlock], 1);

  auto exec = rig.Run(&*bundle);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // sum of money where k < 5: rows with i%10 in 0..4.
  int64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 10 < 5) expected += 100 * (i + 1);
  }
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("total")), expected);
}

TEST(Lowering, ColumnsMaterializedOnceAndShared) {
  auto catalog = SmallCatalog();
  Rig rig;
  // money used by two aggregates: one materialize, shared.
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}),
                     {{AggOp::kSum, "money", "a"},
                      {AggOp::kMax, "money", "b"},
                      {AggOp::kMin, "k", "c"}});
  auto bundle = LowerPlan(*root, *catalog, rig.gpu);
  ASSERT_TRUE(bundle.ok());
  int materializes = 0;
  for (const GraphNode& node : bundle->graph->nodes()) {
    if (node.kind == PrimitiveKind::kMaterialize) ++materializes;
  }
  EXPECT_EQ(materializes, 2) << "money once, k once";
}

TEST(Lowering, ConjunctionChainsThroughBitmap) {
  auto catalog = SmallCatalog();
  Rig rig;
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 8, 0.8),
                                        Predicate::Gt("pct", 2, 0.7)}),
                     {{AggOp::kCount, "k", "n"}});
  auto bundle = LowerPlan(*root, *catalog, rig.gpu);
  ASSERT_TRUE(bundle.ok());
  int filters = 0, combines = 0;
  for (const GraphNode& node : bundle->graph->nodes()) {
    if (node.kind == PrimitiveKind::kFilterBitmap) {
      ++filters;
      combines += node.config.combine_and ? 1 : 0;
    }
  }
  EXPECT_EQ(filters, 2);
  EXPECT_EQ(combines, 1);

  auto exec = rig.Run(&*bundle);
  ASSERT_TRUE(exec.ok());
  int64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 10 < 8 && i % 11 > 2) ++expected;
  }
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("n")), expected);
}

TEST(Lowering, ProjectionsCanReferenceEarlierProjections) {
  auto catalog = SmallCatalog();
  Rig rig;
  auto root = Reduce(
      Project(Scan("t"), {{"twice", ScalarExpr::MulScalar(
                                        "k", 2, ElementType::kInt32)},
                          {"four", ScalarExpr::AddCol("twice", "twice",
                                                      ElementType::kInt32)}}),
      {{AggOp::kSum, "four", "total"}});
  auto bundle = LowerPlan(*root, *catalog, rig.gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = rig.Run(&*bundle);
  ASSERT_TRUE(exec.ok());
  int64_t expected = 0;
  for (int i = 0; i < 100; ++i) expected += 4 * (i % 10);
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("total")), expected);
}

TEST(Lowering, GroupByOverJoinGathersColumns) {
  // Self-join: every key in 0..9 matches ten build rows.
  auto catalog = SmallCatalog();
  Rig rig;
  auto root =
      GroupBy(HashJoin(Scan("t"), Filter(Scan("t"), {Predicate::Lt("k", 3,
                                                                   0.3)}),
                       "k", "k", ProbeMode::kSemi, 1.0),
              "k", {{AggOp::kCount, "", "n"}}, 16, false);
  auto bundle = LowerPlan(*root, *catalog, rig.gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto exec = rig.Run(&*bundle);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto groups = exec->GroupResults(bundle->nodes.at("n"));
  ASSERT_TRUE(groups.ok());
  // Semi join keeps probe rows with k in {0,1,2}: ten rows per key.
  ASSERT_EQ(groups->size(), 3u);
  for (const AggGroup& group : *groups) {
    EXPECT_LT(group.key, 3);
    EXPECT_EQ(group.acc[0], 10);
  }
}

// --- Error handling ---

TEST(Lowering, ErrorsAreDiagnostic) {
  auto catalog = SmallCatalog();
  Rig rig;
  // Unknown table.
  auto bad_table = Reduce(Scan("missing"), {{AggOp::kSum, "x", "x"}});
  EXPECT_TRUE(LowerPlan(*bad_table, *catalog, rig.gpu).status().IsNotFound());
  // Unknown column.
  auto bad_column = Reduce(Scan("t"), {{AggOp::kSum, "nope", "x"}});
  EXPECT_TRUE(LowerPlan(*bad_column, *catalog, rig.gpu).status().IsNotFound());
  // Root must be a sink.
  auto no_sink = Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)});
  EXPECT_TRUE(
      LowerPlan(*no_sink, *catalog, rig.gpu).status().IsInvalidArgument());
  // Sink below the root.
  auto nested_sink = Reduce(Filter(GroupBy(Scan("t"), "k", {{AggOp::kCount,
                                                             "", "n"}},
                                           16, false),
                                   {Predicate::Lt("k", 5, 0.5)}),
                            {{AggOp::kSum, "k", "x"}});
  EXPECT_TRUE(
      LowerPlan(*nested_sink, *catalog, rig.gpu).status().IsInvalidArgument());
  // int64 join key.
  auto bad_key = GroupBy(HashJoin(Scan("t"), Scan("t"), "money", "money",
                                  ProbeMode::kAll, 1.0),
                         "k", {{AggOp::kCount, "", "n"}}, 16, false);
  EXPECT_TRUE(
      LowerPlan(*bad_key, *catalog, rig.gpu).status().IsInvalidArgument());
  // Reduce COUNT without a value column.
  auto bad_count = Reduce(Scan("t"), {{AggOp::kCount, "", "n"}});
  EXPECT_TRUE(
      LowerPlan(*bad_count, *catalog, rig.gpu).status().IsInvalidArgument());
  // Type mismatch in projection.
  auto bad_types = Reduce(
      Project(Scan("t"), {{"x", ScalarExpr::AddCol("k", "money")}}),
      {{AggOp::kSum, "x", "x"}});
  EXPECT_TRUE(
      LowerPlan(*bad_types, *catalog, rig.gpu).status().IsInvalidArgument());
}

TEST(LogicalPlan, ExplainRendersTree) {
  auto catalog = SmallCatalog();
  auto root = GroupBy(
      HashJoin(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}), Scan("t"),
               "k", "k", ProbeMode::kSemi, 0.5),
      "k", {{AggOp::kCount, "", "n"}}, 16, false);
  std::string text = ExplainPlan(*root);
  EXPECT_NE(text.find("GroupBy(k; COUNT())"), std::string::npos);
  EXPECT_NE(text.find("SemiJoin(k = k)"), std::string::npos);
  EXPECT_NE(text.find("Filter(k < 5)"), std::string::npos);
  EXPECT_NE(text.find("Scan(t)"), std::string::npos);
  EXPECT_NE(text.find("[build]"), std::string::npos);
}

// --- Placement policies ---

TEST(Placement, PerKindOverridesSplitWorkAcrossDevices) {
  auto catalog = SmallCatalog();
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());

  // Streaming work on the CPU, hash aggregation on the GPU.
  PlacementPolicy policy;
  policy.default_device = *cpu;
  policy.by_kind[PrimitiveKind::kHashAgg] = *gpu;

  auto root = GroupBy(Filter(Scan("t"), {Predicate::Lt("k", 7, 0.7)}), "k",
                      {{AggOp::kSum, "money", "total"}}, 16, false);
  auto bundle = LowerPlan(*root, *catalog, policy);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  for (const GraphNode& node : bundle->graph->nodes()) {
    EXPECT_EQ(node.device,
              node.kind == PrimitiveKind::kHashAgg ? *gpu : *cpu)
        << node.label;
  }

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 32;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto groups = exec->GroupResults(bundle->nodes.at("total"));
  ASSERT_TRUE(groups.ok());
  std::map<int32_t, int64_t> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 10 < 7) expected[i % 10] += 100 * (i + 1);
  }
  ASSERT_EQ(groups->size(), expected.size());
  for (const AggGroup& group : *groups) {
    EXPECT_EQ(expected.at(group.key), group.acc[0]);
  }
  // Both devices actually executed kernels, and data crossed the host.
  EXPECT_GT(exec->stats.devices[static_cast<size_t>(*gpu)].execute_calls, 0u);
  EXPECT_GT(exec->stats.devices[static_cast<size_t>(*cpu)].execute_calls, 0u);
  EXPECT_GT(exec->stats.bytes_d2h, 0u);
}

TEST(Placement, AllOnEquivalentToDeviceOverload) {
  auto catalog = SmallCatalog();
  Rig rig;
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}),
                     {{AggOp::kSum, "money", "total"}});
  auto a = LowerPlan(*root, *catalog, rig.gpu);
  auto b = LowerPlan(*root, *catalog, PlacementPolicy::AllOn(rig.gpu));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->graph->nodes().size(), b->graph->nodes().size());
  for (size_t i = 0; i < a->graph->nodes().size(); ++i) {
    EXPECT_EQ(a->graph->nodes()[i].device, b->graph->nodes()[i].device);
    EXPECT_EQ(a->graph->nodes()[i].kind, b->graph->nodes()[i].kind);
  }
}

// --- What-if placement search ---

TEST(PlacementSearch, FindsFastestCandidateAndAllAgree) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());
  manager.SetDataScale(30.0 / 0.002);  // make placement matter

  const LogicalNodePtr logical = PlannedBuiltin("q6", **catalog);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  auto search = SearchPlacements(*logical, **catalog, &manager, options);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  // Two devices, three classes: 8 grid candidates, plus the heterogeneous
  // cost-ratio split across the unlike pair.
  EXPECT_EQ(search->evaluated.size(), 9u);
  bool saw_hetero = false;
  for (const auto& [name, elapsed] : search->evaluated) {
    if (name.rfind("device-parallel-hetero{", 0) == 0) saw_hetero = true;
    if (elapsed >= 0) {
      EXPECT_GE(elapsed, search->best_elapsed_us) << name;
    }
  }
  EXPECT_TRUE(saw_hetero);
  EXPECT_FALSE(search->best_name.empty());

  // The winning policy produces the reference answer (placement never
  // changes results).
  auto bundle = LowerPlan(*logical, **catalog, search->best);
  ASSERT_TRUE(bundle.ok());
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("revenue")),
            *tpch::Q6Reference(**catalog, {}));
}

TEST(PlacementSearch, SingleDeviceDegeneratesToOneChoice) {
  auto catalog = SmallCatalog();
  Rig rig;
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}),
                     {{AggOp::kSum, "money", "total"}});
  ExecutionOptions options;
  options.chunk_elems = 64;
  auto search = SearchPlacements(*root, *catalog, &rig.manager, options);
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(search->evaluated.size(), 1u);
}

TEST(PlacementSearch, NoDevicesRejected) {
  auto catalog = SmallCatalog();
  DeviceManager empty;
  auto root = Reduce(Scan("t"), {{AggOp::kSum, "money", "x"}});
  EXPECT_TRUE(SearchPlacements(*root, *catalog, &empty, {})
                  .status()
                  .IsInvalidArgument());
}

// --- TPC-H: the SQL planner's lowered trees match the hand-built plans ---
// (Each lowered built-in against its scalar reference, on every model, is
// sql_test's SqlParity suite.)

TEST(LoweredTpch, PlannedQ3MatchesHandBuiltAcrossModels) {
  // The planned and hand-built Q3 plans must agree on every execution model
  // (they differ structurally, e.g. in join order and estimate margins,
  // but not in results).
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery("q3");
  ASSERT_NE(builtin, nullptr);
  auto compiled = sql::Compile(builtin->sql, **catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Rig rig;
  for (auto model :
       {ExecutionModelKind::kOperatorAtATime, ExecutionModelKind::kChunked,
        ExecutionModelKind::kFourPhasePipelined}) {
    auto lowered = LowerPlan(*compiled->plan, **catalog, rig.gpu);
    ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
    auto hand = BuildQ3(**catalog, {}, rig.gpu);
    ASSERT_TRUE(hand.ok());
    auto exec_lowered = rig.Run(&*lowered, model, 512);
    auto exec_hand = rig.Run(&*hand, model, 512);
    ASSERT_TRUE(exec_lowered.ok() && exec_hand.ok());
    auto planned = sql::ExtractResults(*compiled, *lowered, *exec_lowered);
    auto hand_rows = ExtractQ3(*hand, *exec_hand, **catalog, {});
    ASSERT_TRUE(planned.ok() && hand_rows.ok());
    ASSERT_EQ(planned->rows.size(), hand_rows->size())
        << ExecutionModelName(model);
    for (size_t i = 0; i < hand_rows->size(); ++i) {
      EXPECT_EQ(planned->rows[i][0].i, (*hand_rows)[i].orderkey)
          << ExecutionModelName(model) << " row " << i;
      EXPECT_EQ(planned->rows[i][1].i, (*hand_rows)[i].revenue)
          << ExecutionModelName(model) << " row " << i;
    }
  }
}

}  // namespace
}  // namespace adamant::plan
