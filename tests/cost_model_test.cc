// Tests for the static cost model: the simulated device's per-launch price
// equals what Execute charges, the graph pricer's predictions (admission,
// split, EXPLAIN ANALYZE, fusion gate) match the golden file, every model's
// run charges what the run-clock golden holds, fusion's simulated
// kernel-body win on Q6, and the two calibration stores that consume the
// price behave as documented.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "plan/calibration.h"

namespace adamant {
namespace {

/// Thread budgets: each device's own, one thread, four threads.
constexpr int kBudgets[] = {0, 1, 4};
constexpr sim::DriverKind kDrivers[] = {
    sim::DriverKind::kCudaGpu, sim::DriverKind::kOpenClGpu,
    sim::DriverKind::kOpenClCpu, sim::DriverKind::kOpenMpCpu};

// --- Price equals charge ---

/// One launch of `kind` over a single 4096-row chunk at data scale 1000
/// (4M tuples, past the parallel-speedup threshold), cost_param 1. A
/// HASH_AGG holds `ops`, each valued accumulator reading its own column.
struct SingleLaunch {
  DeviceManager manager;
  PrimitiveGraph graph;
  int node = -1;

  SingleLaunch(sim::DriverKind driver, PrimitiveKind kind,
               std::vector<AggOp> ops = {AggOp::kCount}) {
    auto id = manager.AddDriver(driver);
    ADAMANT_CHECK(id.ok() && BindStandardKernels(manager.device(*id)).ok());
    manager.SetDataScale(1000);
    NodeConfig config;
    if (kind == PrimitiveKind::kHashAgg) {
      config.agg_ops = ops;
      config.expected_build_rows = 1;  // one group: cost_param stays 1
      config.build_rows_scale_with_data = false;
    }
    node = graph.AddNode(kind, *id, config);
    ADAMANT_CHECK(graph
                      .ConnectScan(Column::FromVector(
                                       "k", std::vector<int32_t>(4096, 0)),
                                   node, 0)
                      .ok());
    if (kind != PrimitiveKind::kHashAgg) return;
    for (size_t a = 0; a < ops.size(); ++a) {
      if (ops[a] == AggOp::kCount) continue;
      ADAMANT_CHECK(
          graph
              .ConnectScan(Column::FromVector(std::string("v").append(
                                                  std::to_string(a)),
                                              std::vector<int64_t>(4096, 1)),
                           node, static_cast<int>(a + 1))
              .ok());
    }
  }
};

/// The HASH_AGG accumulator lists priced: Table I's one, and five of every
/// op in one table, like TPC-H Q1's.
const std::vector<std::vector<AggOp>> kAccumulatorLists = {
    {AggOp::kCount},
    {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax, AggOp::kSum}};

TEST(PriceEqualsCharge, EveryDriverAndThreadBudget) {
  // An N-accumulator HASH_AGG is priced and charged N single bodies.
  std::vector<std::pair<PrimitiveKind, std::vector<AggOp>>> launches = {
      {PrimitiveKind::kMap, {}}};
  for (const std::vector<AggOp>& ops : kAccumulatorLists) {
    launches.emplace_back(PrimitiveKind::kHashAgg, ops);
  }
  for (sim::DriverKind driver : kDrivers) {
    for (const auto& [kind, ops] : launches) {
      const char* kernel = GetSignature(kind).kernel_name;
      const int bodies = kind == PrimitiveKind::kHashAgg
                             ? static_cast<int>(ops.size())
                             : 1;
      for (int budget : kBudgets) {
        SCOPED_TRACE(std::string(sim::DriverKindName(driver)) + " " + kernel +
                     " bodies=" + std::to_string(bodies) +
                     " threads=" + std::to_string(budget));
        SingleLaunch rig(driver, kind, ops);
        ExecutionOptions options;
        options.chunk_elems = size_t{1} << 30;  // one chunk
        options.kernel_threads = budget;
        auto pipelines = rig.graph.SplitPipelines();
        ASSERT_TRUE(pipelines.ok());
        auto price =
            exec::PriceGraph(rig.graph, *pipelines, options, &rig.manager);
        ASSERT_TRUE(price.ok()) << price.status().ToString();
        ASSERT_EQ(price->pipeline_chunks, std::vector<size_t>{1});
        SimulatedDevice* dev = rig.manager.device(0);
        const SimulatedDevice::LaunchPrice launch =
            dev->PriceLaunch(kernel, 4096.0 * 1000, budget, bodies);
        EXPECT_EQ(launch.body_us,
                  bodies * dev->PriceLaunch(kernel, 4096.0 * 1000, budget)
                               .body_us);

        QueryExecutor executor(&rig.manager);
        auto run = executor.Run(&rig.graph, options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const DeviceRunStats& charged = run->stats.devices[0];
        const sim::SimTime body = charged.kernel_body_by_name.at(kernel);
        EXPECT_EQ(launch.body_us, body);
        EXPECT_EQ(price->nodes[static_cast<size_t>(rig.node)].cost_us,
                  dev->perf_model().kernel_launch_us + body);
        // The threads the pricer reports are the ones Execute ran on.
        EXPECT_EQ(price->nodes[static_cast<size_t>(rig.node)].threads,
                  launch.threads);
        // 4,096 rows are one tile: under any budget the launch runs as one
        // range, so no launch counts as tiled.
        EXPECT_EQ(charged.parallel_launches, 0u);
      }
    }
  }
}

TEST(PriceEqualsCharge, KernelsThatDoNotTileRunOnOneThread) {
  SingleLaunch rig(sim::DriverKind::kOpenMpCpu, PrimitiveKind::kHashAgg);
  const SimulatedDevice* dev = rig.manager.device(0);
  EXPECT_EQ(dev->LaunchThreads(0, "hash_agg"), 1);
  EXPECT_EQ(dev->LaunchThreads(4, "hash_agg"), 1);
  EXPECT_EQ(dev->LaunchThreads(0, "map"), dev->kernel_threads());
  EXPECT_EQ(dev->LaunchThreads(2, "map"), 2);
  // The device-wide budget is what DeviceRunStats reports.
  EXPECT_EQ(dev->LaunchThreads(0), dev->kernel_threads());
}

// --- Golden predictions ---

/// The golden file's setup (see its header): four drivers in one manager,
/// hand-built Q1/Q3/Q4/Q6 at nominal SF 10 over a generated SF 0.002.
struct GoldenRig {
  std::shared_ptr<Catalog> catalog;
  DeviceManager manager;

  GoldenRig() {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    config.include_dimension_tables = false;
    auto generated = tpch::Generate(config);
    ADAMANT_CHECK(generated.ok());
    catalog = *generated;
    for (sim::DriverKind driver : kDrivers) {
      auto id = manager.AddDriver(driver);
      ADAMANT_CHECK(id.ok() && BindStandardKernels(manager.device(*id)).ok());
    }
    manager.SetDataScale(10.0 / 0.002);
  }

  plan::PlanBundle Build(const std::string& query, DeviceId device) const {
    Result<plan::PlanBundle> bundle =
        query == "Q1"   ? plan::BuildQ1(*catalog, {}, device)
        : query == "Q3" ? plan::BuildQ3(*catalog, {}, device)
        : query == "Q4" ? plan::BuildQ4(*catalog, {}, device)
                        : plan::BuildQ6(*catalog, {}, device);
    ADAMANT_CHECK(bundle.ok()) << query;
    return std::move(*bundle);
  }
};

DeviceId DeviceByName(const std::string& name) {
  const char* names[] = {"cuda_gpu", "opencl_gpu", "opencl_cpu", "openmp_cpu"};
  for (DeviceId id = 0; id < 4; ++id) {
    if (name == names[id]) return id;
  }
  ADAMANT_CHECK(false) << "unknown driver " << name;
  return -1;
}

/// True when every launch of `kernel` runs on the device's own budget, so
/// the walks the pricer replaced already agreed with the device's charge.
bool RunsOwnBudget(const SimulatedDevice& dev, const char* kernel,
                const ExecutionOptions& options) {
  return dev.kernel_threads() == 1 ||
         dev.LaunchThreads(options.kernel_threads, kernel) ==
             dev.kernel_threads();
}

bool GraphRunsOwnBudget(const PrimitiveGraph& graph, const SimulatedDevice& dev,
                     const ExecutionOptions& options) {
  for (const GraphNode& node : graph.nodes()) {
    if (!RunsOwnBudget(dev, GetSignature(node.kind).kernel_name, options)) {
      return false;
    }
  }
  return true;
}

/// Checks one golden value token: "X" (unchanged from the replaced walks)
/// or "X>Y" (moved to the device's own price Y).
void CheckValue(const std::string& token, double actual, bool relative,
                bool own_budget, const std::string& what) {
  const size_t arrow = token.find('>');
  const double parent = std::stod(token.substr(0, arrow));
  if (arrow == std::string::npos) {
    if (relative) {
      EXPECT_NEAR(actual, parent, 1e-12 * std::abs(parent)) << what;
    } else {
      EXPECT_EQ(actual, parent) << what;
    }
    return;
  }
  EXPECT_FALSE(own_budget) << what << ": moved on the device's own budget";
  const double moved = std::stod(token.substr(arrow + 1));
  EXPECT_NE(parent, moved) << what;
  EXPECT_EQ(actual, moved) << what;
}

TEST(GoldenPredictions, MatchTheReplacedWalksWhereTheyAgreedWithTheDevice) {
  GoldenRig rig;
  std::ifstream in(ADAMANT_GOLDEN_DIR "/cost_model.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string query, driver, threads, model, kind, token;
    fields >> query >> driver >> threads >> model >> kind;
    std::vector<std::string> values;
    while (fields >> token) values.push_back(token);

    std::vector<int> budgets(std::begin(kBudgets), std::end(kBudgets));
    if (threads != "*") budgets = {std::stoi(threads)};
    for (int budget : budgets) {
      const std::string what =
          line.substr(0, line.find(kind) + kind.size()) +
          " [threads=" + std::to_string(budget) + "]";
      ExecutionOptions options;
      options.model = model == "oaat" ? ExecutionModelKind::kOperatorAtATime
                                      : ExecutionModelKind::kChunked;
      options.chunk_elems = size_t{1} << 22;
      options.kernel_threads = budget;
      ++checked;

      if (kind == "weights") {
        plan::PlanBundle bundle = rig.Build(query, 0);
        auto prices =
            exec::PriceDevices(*bundle.graph, options, &rig.manager, {0, 3});
        ASSERT_TRUE(prices.ok());
        const std::vector<double> weights = exec::ThroughputWeights(*prices);
        const bool own_budget = GraphRunsOwnBudget(
            *bundle.graph, *rig.manager.device(3), options);
        ASSERT_EQ(values.size(), 2u) << what;
        CheckValue(values[0], weights[0], false, own_budget, what);
        CheckValue(values[1], weights[1], false, own_budget, what);
        continue;
      }
      const DeviceId device = DeviceByName(driver);
      const SimulatedDevice& dev = *rig.manager.device(device);
      plan::PlanBundle bundle = rig.Build(query, device);
      if (kind == "fusion") {
        options.fusion = FusionMode::kAuto;
        auto report = plan::ApplyFusion(&bundle, options, &rig.manager);
        ASSERT_TRUE(report.ok());
        std::vector<std::string> got = {std::to_string(report->groups)};
        got.insert(got.end(), report->recipes.begin(),
                   report->recipes.end());
        EXPECT_EQ(got, values) << what;
      } else if (kind == "admission" || kind == "split") {
        // Admission prices the probe device exactly like a split prices
        // each device of its set.
        auto prices = exec::PriceDevices(*bundle.graph, options,
                                         &rig.manager, {device});
        ASSERT_TRUE(prices.ok());
        ASSERT_EQ(values.size(), 1u) << what;
        CheckValue(values[0], prices->front().cost_us, kind == "admission",
                   GraphRunsOwnBudget(*bundle.graph, dev, options), what);
      } else {
        ASSERT_EQ(kind, "nodes");
        options.collect_operator_stats = true;
        QueryExecutor executor(&rig.manager);
        auto run = executor.Run(bundle.graph.get(), options);
        ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
        const auto& operators = run->stats.profile.operators;
        ASSERT_EQ(operators.size(), values.size()) << what;
        for (size_t i = 0; i < operators.size(); ++i) {
          const char* kernel =
              GetSignature(bundle.graph->node(operators[i].node_id).kind)
                  .kernel_name;
          CheckValue(values[i], operators[i].predicted_cost_us, false,
                     RunsOwnBudget(dev, kernel, options),
                     what + " node " + std::to_string(i) + " (" + kernel +
                         ")");
        }
      }
    }
  }
  // 4 queries x (4 drivers x 3 budgets x 2 models x 3 kinds + 3 x 2
  // weights + 4 drivers x 3 fusion).
  EXPECT_EQ(checked, 4u * (4 * 3 * 2 * 3 + 3 * 2 + 4 * 3));
}

// --- Golden run clock ---

/// The single-device models of run_clock.txt, by the token its lines use,
/// with the pipelined staging-ring depth.
struct ClockModel {
  const char* token;
  ExecutionModelKind model;
  size_t pipeline_depth;
};
constexpr ClockModel kClockModels[] = {
    {"oaat", ExecutionModelKind::kOperatorAtATime, 0},
    {"chunked", ExecutionModelKind::kChunked, 0},
    {"pipelined", ExecutionModelKind::kPipelined, 0},
    {"pipelined-depth2", ExecutionModelKind::kPipelined, 2},
    {"4phase", ExecutionModelKind::kFourPhaseChunked, 0},
    {"4phase-pipelined", ExecutionModelKind::kFourPhasePipelined, 0},
};

/// One run of `query` under `options` (fused first when `fused`), as its
/// golden line's values: the simulated clock, chunks and H2D bytes, then
/// each device the run called.
std::string RunClockValues(GoldenRig& rig, const std::string& query,
                           DeviceId device, bool fused,
                           ExecutionOptions options) {
  plan::PlanBundle bundle = rig.Build(query, device);
  if (fused) {
    options.fusion = FusionMode::kOn;
    auto report = plan::ApplyFusion(&bundle, options, &rig.manager);
    if (!report.ok()) return "fusion error: " + report.status().ToString();
  }
  QueryExecutor executor(&rig.manager);
  auto run = executor.Run(bundle.graph.get(), options);
  if (!run.ok()) return "error: " + run.status().ToString();
  const QueryStats& stats = run->stats;
  std::ostringstream out;
  out << std::setprecision(17) << "elapsed_us=" << stats.elapsed_us
      << " kernel_body_us=" << stats.kernel_body_us
      << " transfer_wire_us=" << stats.transfer_wire_us
      << " chunks=" << stats.chunks << " bytes_h2d=" << stats.bytes_h2d;
  for (const DeviceRunStats& dev : stats.devices) {
    if (dev.execute_calls == 0 && dev.prepare_calls == 0) continue;
    out << " " << dev.name << ":execute=" << dev.execute_calls
        << ",prepare=" << dev.prepare_calls
        << ",mem_high_water=" << dev.device_mem_high_water;
  }
  return out.str();
}

// Every model's run charges exactly the simulated time, launches,
// allocations and device memory the golden file recorded: a runtime
// refactor that moves one booked microsecond fails here.
TEST(GoldenRunClock, EveryModelChargesWhatTheGoldenHolds) {
  GoldenRig rig;
  std::vector<std::string> got;
  for (const char* query : {"Q1", "Q3", "Q4", "Q6"}) {
    for (bool fused : {false, true}) {
      const std::string key_tail = fused ? " fusion=on " : " fusion=off ";
      for (const char* driver :
           {"cuda_gpu", "opencl_gpu", "opencl_cpu", "openmp_cpu"}) {
        for (const ClockModel& model : kClockModels) {
          ExecutionOptions options;
          options.model = model.model;
          options.pipeline_depth = model.pipeline_depth;
          options.chunk_elems = size_t{1} << 22;
          options.fusion = FusionMode::kOff;
          got.push_back(std::string(query) + " " + driver + " " +
                        model.token + key_tail +
                        RunClockValues(rig, query, DeviceByName(driver),
                                       fused, options));
        }
      }
      // Device-parallel on the cuda_gpu + openmp_cpu pair, split by the
      // priced throughput. Rebalancing stays off: its steals follow host
      // timing, so only the static split has one clock.
      ExecutionOptions options;
      options.model = ExecutionModelKind::kDeviceParallel;
      options.device_set = {DeviceByName("cuda_gpu"),
                            DeviceByName("openmp_cpu")};
      options.split_rebalance = false;
      options.chunk_elems = size_t{1} << 22;
      options.fusion = FusionMode::kOff;
      got.push_back(std::string(query) +
                    " cuda_gpu+openmp_cpu device-parallel" + key_tail +
                    RunClockValues(rig, query, 0, fused, options));
    }
  }

  std::ifstream in(ADAMANT_GOLDEN_DIR "/run_clock.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') want.push_back(line);
  }
  // 4 queries x 2 fusion modes x (4 drivers x 6 models + 1 pair).
  ASSERT_EQ(got.size(), 4u * 2 * (4 * 6 + 1));
  EXPECT_EQ(want.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(i < want.size() ? want[i] : "", got[i]) << "line " << i;
  }
}

// --- Fusion gate ---

struct Q6Run {
  int64_t revenue = 0;
  double kernel_body_us = 0;
  size_t fused_launches = 0;
  int fused_groups = 0;
};

/// Q6 compiled through CompileQuery under `fusion` and run chunked on a
/// fresh cuda_gpu (fresh, so its clocks measure exactly this run), SF 0.01
/// charged as SF 30.
Result<Q6Run> RunQ6(const Catalog& catalog, FusionMode fusion) {
  DeviceManager manager;
  manager.SetDataScale(30 / 0.01);
  ADAMANT_ASSIGN_OR_RETURN(DeviceId device,
                           manager.AddDriver(sim::DriverKind::kCudaGpu));
  ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
  QuerySource source;
  ADAMANT_ASSIGN_OR_RETURN(source.bundle, plan::BuildQ6(catalog, {}, device));
  CompileContext context;
  context.catalog = &catalog;
  context.manager = &manager;
  context.placement = plan::PlacementPolicy::AllOn(device);
  context.options.model = ExecutionModelKind::kChunked;
  context.options.chunk_elems = size_t{1} << 25;
  context.options.fusion = fusion;
  ADAMANT_ASSIGN_OR_RETURN(CompiledPlan plan,
                           CompileQuery(std::move(source), context));
  QueryExecutor executor(&manager);
  ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                           executor.Run(plan.bundle.graph.get(), plan.options));
  Q6Run run;
  ADAMANT_ASSIGN_OR_RETURN(run.revenue, plan::ExtractQ6(plan.bundle, exec));
  run.kernel_body_us = exec.stats.kernel_body_us;
  for (const DeviceRunStats& device : exec.stats.devices) {
    run.fused_launches += device.fused_launches;
  }
  run.fused_groups = plan.fusion.groups;
  return run;
}

// Fusing Q6's filter/materialize/map/agg chain into one composite cuts its
// simulated kernel body time >= 2x (the model gives 5.77x; wire
// time, which the scan columns pay either way, is not gated), with a
// bit-identical revenue.
TEST(FusionGate, FusedQ6KernelBodyAtLeastTwiceFaster) {
  auto catalog = tpch::Generate({.scale_factor = 0.01});
  ASSERT_TRUE(catalog.ok());
  auto unfused = RunQ6(**catalog, FusionMode::kOff);
  auto fused = RunQ6(**catalog, FusionMode::kOn);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_GE(fused->fused_groups, 1);
  EXPECT_GT(fused->fused_launches, 0u);
  EXPECT_GE(unfused->kernel_body_us / fused->kernel_body_us, 2.0);
  EXPECT_EQ(fused->revenue, unfused->revenue);
}

// --- The price's consumers: wall-time and split calibration ---

TEST(CostCalibration, FirstSampleSeedsThenEwma) {
  plan::Calibration calibration;
  EXPECT_EQ(calibration.RunObservations(), 0u);
  EXPECT_EQ(calibration.PredictWallMs("q6", 1000, 5), 5);
  calibration.ObserveRun("q6", 1000, 10);
  EXPECT_EQ(calibration.avg_run_ms(), 10);
  EXPECT_EQ(calibration.PredictWallMs("q6", 1000, 0), 10);
  EXPECT_EQ(calibration.PredictWallMs("new", 3000, 0), 30);
  calibration.ObserveRun("q6", 2000, 20);  // alpha = 0.2
  EXPECT_DOUBLE_EQ(calibration.avg_run_ms(), 0.2 * 20 + 0.8 * 10);
  EXPECT_DOUBLE_EQ(calibration.PredictWallMs("q6", 1000, 0),
                   0.2 * 20 + 0.8 * 10);
  // The fleet ratio is an EWMA of wall/sim too: 0.01 both times.
  EXPECT_DOUBLE_EQ(calibration.PredictWallMs("new", 3000, 0), 30);
  EXPECT_EQ(calibration.RunObservations(), 2u);
  // Non-positive wall time is no observation.
  calibration.ObserveRun("q6", 1000, 0);
  EXPECT_EQ(calibration.RunObservations(), 2u);
}

TEST(CostCalibration, NameBeatsFleetRatioBeatsFloor) {
  plan::Calibration calibration;
  calibration.ObserveRun("q1", 1000, 10);  // 0.01 wall ms per sim us
  EXPECT_EQ(calibration.PredictWallMs("q1", 5000, 1), 10);   // per-name
  EXPECT_EQ(calibration.PredictWallMs("q3", 5000, 1), 50);   // fleet ratio
  EXPECT_EQ(calibration.PredictWallMs("q3", 5000, 80), 80);  // floor
  EXPECT_EQ(calibration.PredictWallMs("q3", 0, 3), 3);  // no price: floor
  // A run without a price seeds its name but not the fleet ratio.
  plan::Calibration unpriced;
  unpriced.ObserveRun("q4", 0, 7);
  EXPECT_EQ(unpriced.PredictWallMs("q4", 100, 1), 7);
  EXPECT_EQ(unpriced.PredictWallMs("q6", 100, 1), 1);
}

TEST(SplitCalibration, ClampsSamplesAndDefaultsToOne) {
  plan::Calibration calibration;
  EXPECT_EQ(calibration.SplitRatio("cuda_gpu.0"), 1.0);
  calibration.ObserveSplit("cuda_gpu.0", 1, 100);
  EXPECT_EQ(calibration.SplitRatio("cuda_gpu.0"), 16.0);
  calibration.ObserveSplit("openmp_cpu.1", 100, 1);
  EXPECT_EQ(calibration.SplitRatio("openmp_cpu.1"), 1.0 / 16);
  calibration.ObserveSplit("cuda_gpu.0", 0, 5);  // no prediction: ignored
  calibration.ObserveSplit("cuda_gpu.0", 5, 0);  // no chunks ran: ignored
  EXPECT_EQ(calibration.SplitObservations(), 2u);
  calibration.ObserveSplit("cuda_gpu.0", 1, 2);  // alpha = 0.3
  EXPECT_DOUBLE_EQ(calibration.SplitRatio("cuda_gpu.0"), 0.3 * 2 + 0.7 * 16);
}

TEST(SplitCalibration, CalibrateWeightsRenormalizes) {
  plan::Calibration calibration;
  calibration.ObserveSplit("slow", 1, 2);  // runs 2x its prediction
  const std::vector<double> weights =
      calibration.CalibrateWeights({"slow", "unseen"}, {0.5, 0.5});
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0 / 3);
  EXPECT_DOUBLE_EQ(weights[1], 2.0 / 3);
  // Names not parallel to the weights: the input comes back unchanged.
  EXPECT_EQ(calibration.CalibrateWeights({"slow"}, {0.7, 0.3}),
            (std::vector<double>{0.7, 0.3}));
}

}  // namespace
}  // namespace adamant
