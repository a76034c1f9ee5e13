// Tests for the sampling-based selectivity annotator and the library
// reference interpreter it is built on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "adamant/adamant.h"
#include "plan/interpreter.h"
#include "plan/selectivity.h"

namespace adamant::plan {
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

std::shared_ptr<Catalog> UniformCatalog() {
  // k in 0..9 uniform, value = 1.
  auto catalog = std::make_shared<Catalog>();
  auto table = std::make_shared<Table>("u");
  std::vector<int32_t> k(1000);
  std::vector<int64_t> v(1000, 1);
  for (int i = 0; i < 1000; ++i) k[static_cast<size_t>(i)] = i % 10;
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("k", k)).ok());
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("v", v)).ok());
  ADAMANT_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

// --- Interpreter sanity (the fuzzer covers the deep cases) ---

TEST(Interpreter, MatchesHandComputedAggregate) {
  auto catalog = UniformCatalog();
  auto root = GroupBy(Filter(Scan("u"), {Predicate::Lt("k", 5, 0.0)}), "k",
                      {{AggOp::kCount, "", "n"}}, 16, false);
  auto results = InterpretPlan(*root, *catalog);
  ASSERT_TRUE(results.ok());
  const auto& groups = results->at("n");
  ASSERT_EQ(groups.size(), 5u);
  for (const auto& [key, count] : groups) EXPECT_EQ(count, 100);
}

TEST(Interpreter, RejectsSinkInStreamPosition) {
  auto catalog = UniformCatalog();
  auto root = GroupBy(Scan("u"), "k", {{AggOp::kCount, "", "n"}}, 16, false);
  EXPECT_TRUE(InterpretStream(*root, *catalog).status().IsInvalidArgument());
  EXPECT_TRUE(InterpretPlan(*Scan("u"), *catalog).status().IsInvalidArgument());
}

// --- Annotator ---

TEST(Selectivity, MeasuresUniformPredicate) {
  auto catalog = UniformCatalog();
  // Deliberately wrong user estimate (0.9); k < 3 really selects 30%.
  auto root = Reduce(Filter(Scan("u"), {Predicate::Lt("k", 3, 0.9)}),
                     {{AggOp::kSum, "v", "total"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, /*sample_every=*/1);
  ASSERT_TRUE(annotated.ok());
  const LogicalNode& filter = *(*annotated)->child;
  ASSERT_EQ(filter.predicates.size(), 1u);
  EXPECT_NEAR(filter.predicates[0].selectivity, 0.3, 0.01);
  // The original tree is untouched.
  EXPECT_DOUBLE_EQ(root->child->predicates[0].selectivity, 0.9);
}

TEST(Selectivity, ConditionalTermsMultiplyOut) {
  auto catalog = UniformCatalog();
  // k < 8 (0.8) then k >= 4 given k < 8 (4..7 of 0..7 = 0.5).
  auto root = Reduce(Filter(Scan("u"), {Predicate::Lt("k", 8, 0.0),
                                        Predicate::Ge("k", 4, 0.0)}),
                     {{AggOp::kSum, "v", "total"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, 1);
  ASSERT_TRUE(annotated.ok());
  const auto& preds = (*annotated)->child->predicates;
  EXPECT_NEAR(preds[0].selectivity, 0.8, 0.01);
  EXPECT_NEAR(preds[1].selectivity, 0.5, 0.01);
}

TEST(Selectivity, SamplingApproximatesFullScan) {
  auto root = Reduce(
      Filter(Scan("lineitem"),
             {Predicate::Between("l_shipdate", tpch::Q6Params{}.date,
                                 tpch::Q6Params{}.date_end() - 1, 0.0)}),
      {{AggOp::kSum, "l_extendedprice", "total"}});
  auto exact = AnnotateSelectivities(*root, SharedCatalog(), 1);
  auto sampled = AnnotateSelectivities(*root, SharedCatalog(), 13);
  ASSERT_TRUE(exact.ok() && sampled.ok());
  const double exact_sel = (*exact)->child->predicates[0].selectivity;
  const double sampled_sel = (*sampled)->child->predicates[0].selectivity;
  EXPECT_NEAR(exact_sel, 1.0 / 7.0, 0.02) << "one year of ~7";
  EXPECT_NEAR(sampled_sel, exact_sel, 0.05);
}

TEST(Selectivity, JoinFractionAndGroupCountFilled) {
  auto catalog = UniformCatalog();
  // Semi self-join where the build side keeps k < 3: 30% of probes match.
  auto root = GroupBy(
      HashJoin(Scan("u"), Filter(Scan("u"), {Predicate::Lt("k", 3, 0.0)}),
               "k", "k", ProbeMode::kSemi, /*join_selectivity=*/0.9),
      "k", {{AggOp::kSum, "v", "total"}}, /*expected_groups=*/0, true);
  auto annotated = AnnotateSelectivities(*root, *catalog, 1);
  ASSERT_TRUE(annotated.ok());
  EXPECT_NEAR((*annotated)->child->join_selectivity, 0.3, 0.01);
  EXPECT_GE((*annotated)->expected_groups, 3.0);
}

TEST(Selectivity, AnnotatedTpchPlansRunCorrectly) {
  // End to end: re-derive the planned Q6's estimates by sampling, and the
  // lowered plan must still produce the exact answer (the margins keep
  // sampling error from causing overflows).
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());

  auto compiled =
      sql::Compile(sql::FindBuiltinQuery("q6")->sql, SharedCatalog());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto annotated = AnnotateSelectivities(*compiled->plan, SharedCatalog(), 11);
  ASSERT_TRUE(annotated.ok());
  auto bundle = LowerPlan(**annotated, SharedCatalog(), *gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 512;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(bundle->nodes.at("revenue")),
            *tpch::Q6Reference(SharedCatalog(), {}));
}

TEST(Selectivity, TighterEstimatesShrinkBuffers) {
  // With measured selectivities the materialize buffers are sized to the
  // real fraction instead of the user's guess: the Q6 plan annotated by
  // sampling allocates less device memory than one annotated with sel=1.
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  QueryExecutor executor(&manager);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = 1024;

  auto pessimistic_tree = Reduce(
      Project(Filter(Scan("lineitem"),
                     {Predicate::Between("l_shipdate", tpch::Q6Params{}.date,
                                         tpch::Q6Params{}.date_end() - 1,
                                         1.0)}),
              {{"revenue",
                ScalarExpr::MulPct("l_extendedprice", "l_discount")}}),
      {{AggOp::kSum, "revenue", "revenue"}});
  auto pessimistic = LowerPlan(*pessimistic_tree, SharedCatalog(), *gpu);
  ASSERT_TRUE(pessimistic.ok());
  auto exec_p = executor.Run(pessimistic->graph.get(), options);
  ASSERT_TRUE(exec_p.ok());

  auto annotated_tree =
      AnnotateSelectivities(*pessimistic_tree, SharedCatalog(), 7);
  ASSERT_TRUE(annotated_tree.ok());
  auto annotated = LowerPlan(**annotated_tree, SharedCatalog(), *gpu);
  ASSERT_TRUE(annotated.ok());
  auto exec_a = executor.Run(annotated->graph.get(), options);
  ASSERT_TRUE(exec_a.ok());

  const auto& mem_p =
      exec_p->stats.devices[static_cast<size_t>(*gpu)].device_mem_high_water;
  const auto& mem_a =
      exec_a->stats.devices[static_cast<size_t>(*gpu)].device_mem_high_water;
  EXPECT_LT(mem_a, mem_p) << "measured estimates size buffers tighter";
  // Same answer either way.
  EXPECT_EQ(*exec_a->AggValue(annotated->nodes.at("revenue")),
            *exec_p->AggValue(pessimistic->nodes.at("revenue")));
}

// --- Sampling edge cases ---

std::shared_ptr<Catalog> OneColumnCatalog(std::vector<int32_t> values) {
  auto catalog = std::make_shared<Catalog>();
  auto table = std::make_shared<Table>("t");
  ADAMANT_CHECK(table->AddColumn(Column::FromVector("k", values)).ok());
  ADAMANT_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

TEST(Selectivity, TableShorterThanStrideSamplesRowZeroOnly) {
  auto catalog = OneColumnCatalog({0, 9, 9, 9, 9});
  auto scan = InterpretScan(*Scan("t"), *catalog, 7);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->rows, 1u);
  EXPECT_EQ(scan->cols.at("k"), std::vector<int64_t>{0});
  // Only row 0 (k = 0) is sampled, so k < 5 matches the whole sample.
  auto root = Reduce(Filter(Scan("t"), {Predicate::Lt("k", 5, 0.5)}),
                     {{AggOp::kCount, "", "n"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, 7);
  ASSERT_TRUE(annotated.ok());
  EXPECT_EQ((*annotated)->child->predicates[0].selectivity, 1.0);
}

TEST(Selectivity, StrideNotDividingRowCountKeepsTheLastPartialStep) {
  // 10 rows at stride 3 sample rows 0, 3, 6 and 9.
  std::vector<int32_t> k(10);
  std::iota(k.begin(), k.end(), 0);
  auto catalog = OneColumnCatalog(k);
  auto scan = InterpretScan(*Scan("t"), *catalog, 3);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->rows, 4u);
  EXPECT_EQ(scan->cols.at("k"), (std::vector<int64_t>{0, 3, 6, 9}));
  auto root = Reduce(Filter(Scan("t"), {Predicate::Ge("k", 9, 0.5)}),
                     {{AggOp::kCount, "", "n"}});
  auto annotated = AnnotateSelectivities(*root, *catalog, 3);
  ASSERT_TRUE(annotated.ok());
  EXPECT_EQ((*annotated)->child->predicates[0].selectivity, 0.25);
}

// --- Golden estimates ---

/// Every estimate the annotator writes, in pre-order (node, build side,
/// probe side): each filter term's selectivity, each join's selectivity and
/// each GroupBy's group count, at %.17g so equal text means equal bits.
void RenderEstimates(const LogicalNode& node, std::string* out) {
  auto add = [out](const std::string& label, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    *out += " " + label + "=" + text;
  };
  for (const Predicate& pred : node.predicates) {
    add("sel:" + pred.column, pred.selectivity);
  }
  if (node.kind == LogicalNode::Kind::kHashJoin) {
    add("join:" + node.probe_key, node.join_selectivity);
  }
  if (node.kind == LogicalNode::Kind::kGroupBy) {
    add("groups:" + node.group_key, node.expected_groups);
  }
  if (node.build != nullptr) RenderEstimates(*node.build, out);
  if (node.child != nullptr) RenderEstimates(*node.child, out);
}

TEST(GoldenEstimates, BuiltinsReproduceTheRecordedEstimates) {
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  auto catalog = tpch::Generate(config);
  ASSERT_TRUE(catalog.ok());
  std::ifstream in(ADAMANT_GOLDEN_DIR "/selectivity.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string query;
    size_t sample_every = 0;
    fields >> query >> sample_every;
    std::string expected;
    std::getline(fields, expected);

    const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(query);
    ASSERT_NE(builtin, nullptr) << query;
    sql::PlannerOptions options;
    options.sample_every = sample_every;
    auto compiled = sql::Compile(builtin->sql, **catalog, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::string actual;
    RenderEstimates(*compiled->plan, &actual);
    EXPECT_EQ(actual, expected) << query << " sample_every=" << sample_every;
    ++checked;
  }
  EXPECT_EQ(checked, sql::BuiltinQueries().size() * 3);
}

TEST(Selectivity, InvalidSampleRateRejected) {
  auto catalog = UniformCatalog();
  auto root = Reduce(Scan("u"), {{AggOp::kSum, "v", "x"}});
  EXPECT_TRUE(AnnotateSelectivities(*root, *catalog, 0)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace adamant::plan
