// Randomized plan fuzzing: generate random logical plans over random
// tables, lower and execute them on the simulated device, and compare
// against an independent host interpreter of the same logical
// algebra. Every seed is deterministic; a failing seed reproduces exactly.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "adamant/adamant.h"
#include "common/random.h"
#include "plan/interpreter.h"
#include "plan/lowering.h"
#include "task/hash_table.h"

namespace adamant::plan {
namespace {

// The reference interpreter lives in the library (plan/interpreter.h); it
// shares only the operator *semantics* with the executor path — no kernels,
// no devices — so it still serves as an independent oracle here.
using HostResults = InterpreterResults;

Result<HostResults> EvalPlan(const LogicalNode& root, const Catalog& catalog) {
  return InterpretPlan(root, catalog);
}

// ---------------------------------------------------------------------------
// Random plan generation.
// ---------------------------------------------------------------------------

struct FuzzCase {
  std::shared_ptr<Catalog> catalog;
  LogicalNodePtr plan;
};

FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase c;
  c.catalog = std::make_shared<Catalog>();

  auto make_table = [&](const std::string& name, size_t rows,
                        bool distinct_keys) {
    auto table = std::make_shared<Table>(name);
    std::vector<int32_t> key(rows), small(rows), pct(rows);
    std::vector<int64_t> value(rows);
    if (distinct_keys) {
      std::iota(key.begin(), key.end(), 1);
      // Deterministic shuffle.
      for (size_t i = rows; i > 1; --i) {
        std::swap(key[i - 1],
                  key[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
    } else {
      for (auto& k : key) k = static_cast<int32_t>(rng.Uniform(1, 40));
    }
    for (size_t i = 0; i < rows; ++i) {
      small[i] = static_cast<int32_t>(rng.Uniform(-20, 20));
      pct[i] = static_cast<int32_t>(rng.Uniform(0, 30));
      value[i] = rng.Uniform(-1000, 1000);
    }
    ADAMANT_CHECK(table->AddColumn(Column::FromVector("key", key)).ok());
    ADAMANT_CHECK(table->AddColumn(Column::FromVector("small", small)).ok());
    ADAMANT_CHECK(table->AddColumn(Column::FromVector("pct", pct)).ok());
    ADAMANT_CHECK(table->AddColumn(Column::FromVector("value", value)).ok());
    ADAMANT_CHECK(c.catalog->AddTable(table).ok());
  };
  const size_t probe_rows = 500 + static_cast<size_t>(rng.Uniform(0, 2000));
  make_table("probe_side", probe_rows, /*distinct_keys=*/false);
  make_table("build_side", 64 + static_cast<size_t>(rng.Uniform(0, 400)),
             /*distinct_keys=*/true);

  LogicalNodePtr stream = Scan("probe_side");

  // Optional filter with 1-2 predicates over random columns.
  if (rng.Bernoulli(0.8)) {
    std::vector<Predicate> preds;
    const int n_preds = 1 + static_cast<int>(rng.Uniform(0, 1));
    const char* pred_cols[] = {"key", "small", "pct"};
    for (int i = 0; i < n_preds; ++i) {
      const std::string col = pred_cols[rng.Uniform(0, 2)];
      switch (rng.Uniform(0, 3)) {
        case 0:
          preds.push_back(Predicate::Lt(col, rng.Uniform(-10, 30), 1.0));
          break;
        case 1:
          preds.push_back(Predicate::Ge(col, rng.Uniform(-10, 30), 1.0));
          break;
        case 2:
          preds.push_back(Predicate::Between(col, rng.Uniform(-10, 5),
                                             rng.Uniform(6, 30), 1.0));
          break;
        default:
          preds.push_back(Predicate::Ne(col, rng.Uniform(-10, 30), 1.0));
          break;
      }
    }
    stream = Filter(stream, std::move(preds));
  }

  // Optional projections (later ones may reference earlier ones).
  if (rng.Bernoulli(0.7)) {
    std::vector<std::pair<std::string, ScalarExpr>> exprs;
    exprs.emplace_back("d1", ScalarExpr{MapOp::kMulScalar, "value", "",
                                        rng.Uniform(-3, 3),
                                        ElementType::kInt64});
    if (rng.Bernoulli(0.6)) {
      exprs.emplace_back("d2", ScalarExpr{MapOp::kAddCol, "d1", "value", 0,
                                          ElementType::kInt64});
    }
    if (rng.Bernoulli(0.4)) {
      exprs.emplace_back("d3",
                         ScalarExpr::MulPctComplement(
                             exprs.size() > 1 ? "d2" : "d1", "pct"));
    }
    stream = Project(stream, std::move(exprs));
  }

  // Optional join against the (distinct-key) build side.
  if (rng.Bernoulli(0.6)) {
    LogicalNodePtr build = Scan("build_side");
    if (rng.Bernoulli(0.5)) {
      build = Filter(build, {Predicate::Gt("small", rng.Uniform(-15, 10),
                                           1.0)});
    }
    stream = HashJoin(stream, build, "key", "key",
                      rng.Bernoulli(0.5) ? ProbeMode::kAll : ProbeMode::kSemi,
                      /*join_selectivity=*/1.0);
  }

  // Sink.
  auto pick_value_col = [&]() -> std::string {
    return rng.Bernoulli(0.5) ? "value" : "small";
  };
  if (rng.Bernoulli(0.6)) {
    // One to two past HashTableLayout::kMaxAccumulators aggregates of every
    // op, COUNT mixed among the valued ones: one HASH_AGG holds them, two
    // when they overflow it.
    const auto num_aggs = static_cast<size_t>(rng.Uniform(
        1, static_cast<int64_t>(HashTableLayout::kMaxAccumulators) + 2));
    std::vector<AggSpec> aggs;
    for (size_t a = 0; a < num_aggs; ++a) {
      const auto op = static_cast<AggOp>(rng.Uniform(0, 3));
      aggs.push_back({op, op == AggOp::kCount ? "" : pick_value_col(),
                      "agg" + std::to_string(a)});
    }
    const std::string key_col = rng.Bernoulli(0.7) ? "key" : "pct";
    c.plan = GroupBy(stream, key_col, std::move(aggs),
                     /*expected_groups=*/3000, false);
  } else {
    std::vector<AggSpec> aggs = {{AggOp::kSum, pick_value_col(), "sum"}};
    switch (rng.Uniform(0, 2)) {
      case 0:
        aggs.push_back({AggOp::kMin, pick_value_col(), "min"});
        break;
      case 1:
        aggs.push_back({AggOp::kMax, pick_value_col(), "max"});
        break;
      default:
        aggs.push_back({AggOp::kCount, pick_value_col(), "count"});
        break;
    }
    c.plan = Reduce(stream, std::move(aggs));
  }
  return c;
}

// ---------------------------------------------------------------------------
// The fuzz harness.
// ---------------------------------------------------------------------------

class PlanFuzz
    : public ::testing::TestWithParam<std::tuple<int, ExecutionModelKind>> {};

TEST_P(PlanFuzz, ExecutorMatchesHostInterpreter) {
  const auto [seed, model] = GetParam();
  FuzzCase fuzz = MakeCase(static_cast<uint64_t>(seed) * 2654435761u);

  auto want = EvalPlan(*fuzz.plan, *fuzz.catalog);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  auto bundle = LowerPlan(*fuzz.plan, *fuzz.catalog, *gpu);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = 257;  // deliberately odd chunking
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  for (const auto& [name, want_groups] : *want) {
    ASSERT_TRUE(bundle->nodes.count(name)) << name;
    const int node = bundle->nodes.at(name);
    if (fuzz.plan->kind == LogicalNode::Kind::kGroupBy) {
      auto got = exec->GroupResults(node);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), want_groups.size()) << "aggregate " << name;
      const size_t acc = bundle->AccumulatorOf(name);
      for (const AggGroup& group : *got) {
        ASSERT_TRUE(want_groups.count(group.key))
            << name << " key " << group.key;
        EXPECT_EQ(group.acc[acc], want_groups.at(group.key))
            << name << " key " << group.key;
      }
    } else {
      auto got = exec->AggValue(node);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want_groups.at(0)) << "aggregate " << name;
    }
  }
}

// Fusion property: lowering the same logical plan twice and force-fusing one
// copy must yield bit-identical results under every seed — the fused
// interpreter replays the unfused chain's arithmetic exactly (store/load
// truncation, predicate short-circuiting, row alignment across filters).
// Plans with joins exercise fused groups feeding HASH_PROBE; unfusable
// shapes must degrade to a plain run, never to a wrong answer.
TEST_P(PlanFuzz, FusedRunIsBitIdenticalToUnfused) {
  const auto [seed, model] = GetParam();
  FuzzCase fuzz = MakeCase(static_cast<uint64_t>(seed) * 2654435761u);

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());

  auto plain = LowerPlan(*fuzz.plan, *fuzz.catalog, *gpu);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto fused = LowerPlan(*fuzz.plan, *fuzz.catalog, *gpu);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = 257;  // deliberately odd chunking
  options.fusion = FusionMode::kOn;
  auto report = ApplyFusion(&*fused, options, &manager);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  QueryExecutor executor(&manager);
  auto run_plain = executor.Run(plain->graph.get(), options);
  ASSERT_TRUE(run_plain.ok()) << run_plain.status().ToString();
  auto run_fused = executor.Run(fused->graph.get(), options);
  ASSERT_TRUE(run_fused.ok()) << run_fused.status().ToString();

  auto want = EvalPlan(*fuzz.plan, *fuzz.catalog);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const auto& [name, want_groups] : *want) {
    ASSERT_TRUE(plain->nodes.count(name)) << name;
    ASSERT_TRUE(fused->nodes.count(name)) << name;
    const int plain_node = plain->nodes.at(name);
    const int fused_node = fused->nodes.at(name);
    if (fuzz.plan->kind == LogicalNode::Kind::kGroupBy) {
      auto a = run_plain->GroupResults(plain_node);
      auto b = run_fused->GroupResults(fused_node);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "aggregate " << name;
    } else {
      auto a = run_plain->AggValue(plain_node);
      auto b = run_fused->AggValue(fused_node);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "aggregate " << name;
    }
  }
}

// The property test above is vacuous if the corpus never actually fuses
// anything; assert the random plans do produce fused groups.
TEST(FusionCoverage, CorpusProducesFusedGroups) {
  int groups = 0;
  int fused_nodes = 0;
  for (int seed = 1; seed <= 60; ++seed) {
    FuzzCase fuzz = MakeCase(static_cast<uint64_t>(seed) * 2654435761u);
    auto bundle = LowerPlan(*fuzz.plan, *fuzz.catalog, /*device=*/0);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ExecutionOptions options;
    options.fusion = FusionMode::kOn;
    auto report = ApplyFusion(&*bundle, options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    groups += report->groups;
    fused_nodes += report->nodes_fused;
  }
  EXPECT_GT(groups, 0);
  EXPECT_GE(fused_nodes, 2 * groups);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlanFuzz,
    ::testing::Combine(
        ::testing::Range(1, 61),
        ::testing::Values(ExecutionModelKind::kChunked,
                          ExecutionModelKind::kFourPhasePipelined)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == ExecutionModelKind::kChunked
                  ? "_chunked"
                  : "_fourphasepipe");
    });

}  // namespace
}  // namespace adamant::plan
