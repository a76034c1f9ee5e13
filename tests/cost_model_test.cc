// Tests for the static cost model: the simulated device's per-launch price
// equals what Execute charges, the graph pricer's predictions (admission,
// split, EXPLAIN ANALYZE, fusion gate) match the golden file, fusion's
// simulated kernel-body win on Q6, and the two calibration stores that
// consume the price behave as documented.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "plan/calibration.h"

namespace adamant {
namespace {

constexpr KernelVariantRequest kRequests[] = {KernelVariantRequest::kAuto,
                                              KernelVariantRequest::kScalar,
                                              KernelVariantRequest::kParallel};
constexpr sim::DriverKind kDrivers[] = {
    sim::DriverKind::kCudaGpu, sim::DriverKind::kOpenClGpu,
    sim::DriverKind::kOpenClCpu, sim::DriverKind::kOpenMpCpu};

// --- Price equals charge ---

/// One launch of `kind` over a single 4096-row chunk at data scale 1000
/// (4M tuples, past the parallel-speedup threshold), cost_param 1.
struct SingleLaunch {
  DeviceManager manager;
  PrimitiveGraph graph;
  int node = -1;

  SingleLaunch(sim::DriverKind driver, PrimitiveKind kind) {
    auto id = manager.AddDriver(driver);
    ADAMANT_CHECK(id.ok() && BindStandardKernels(manager.device(*id)).ok());
    manager.SetDataScale(1000);
    NodeConfig config;
    if (kind == PrimitiveKind::kHashAgg) {
      config.agg_op = AggOp::kCount;
      config.expected_build_rows = 1;  // one group: cost_param stays 1
      config.build_rows_scale_with_data = false;
    }
    node = graph.AddNode(kind, *id, config);
    ADAMANT_CHECK(graph
                      .ConnectScan(Column::FromVector(
                                       "k", std::vector<int32_t>(4096, 0)),
                                   node, 0)
                      .ok());
  }
};

TEST(PriceEqualsCharge, EveryDriverVariantAndThreadCount) {
  for (sim::DriverKind driver : kDrivers) {
    for (PrimitiveKind kind : {PrimitiveKind::kMap, PrimitiveKind::kHashAgg}) {
      const char* kernel = GetSignature(kind).kernel_name;
      for (KernelVariantRequest request : kRequests) {
        for (int threads : {0, 1}) {
          SCOPED_TRACE(std::string(sim::DriverKindName(driver)) + " " +
                       kernel + " variant=" +
                       std::to_string(static_cast<int>(request)) +
                       " threads=" + std::to_string(threads));
          SingleLaunch rig(driver, kind);
          ExecutionOptions options;
          options.chunk_elems = size_t{1} << 30;  // one chunk
          options.kernel_variant = request;
          options.kernel_threads = threads;
          auto pipelines = rig.graph.SplitPipelines();
          ASSERT_TRUE(pipelines.ok());
          auto price =
              exec::PriceGraph(rig.graph, *pipelines, options, &rig.manager);
          ASSERT_TRUE(price.ok()) << price.status().ToString();
          ASSERT_EQ(price->pipeline_chunks, std::vector<size_t>{1});
          SimulatedDevice* dev = rig.manager.device(0);
          const SimulatedDevice::LaunchPrice launch =
              dev->PriceLaunch(kernel, 4096.0 * 1000, request, threads);

          QueryExecutor executor(&rig.manager);
          auto run = executor.Run(&rig.graph, options);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          const DeviceRunStats& charged = run->stats.devices[0];
          const sim::SimTime body = charged.kernel_body_by_name.at(kernel);
          EXPECT_EQ(launch.body_us, body);
          EXPECT_EQ(price->nodes[static_cast<size_t>(rig.node)].cost_us,
                    dev->perf_model().kernel_launch_us + body);
          // The variant the pricer reports is the one Execute dispatched.
          const KernelVariantChoice choice =
              price->nodes[static_cast<size_t>(rig.node)].choice;
          EXPECT_EQ(choice.variant, launch.choice.variant);
          EXPECT_EQ(charged.parallel_launches,
                    choice.variant == KernelVariant::kParallel ? 1u : 0u);
        }
      }
    }
  }
}

TEST(PriceEqualsCharge, KernelsWithoutParallelBindingRunScalar) {
  SingleLaunch rig(sim::DriverKind::kOpenMpCpu, PrimitiveKind::kHashAgg);
  const SimulatedDevice* dev = rig.manager.device(0);
  const KernelVariantChoice agg =
      dev->ResolveKernelVariant("hash_agg", KernelVariantRequest::kAuto, 0);
  EXPECT_EQ(agg.variant, KernelVariant::kScalar);
  EXPECT_EQ(agg.threads, 1);
  const KernelVariantChoice map =
      dev->ResolveKernelVariant("map", KernelVariantRequest::kAuto, 0);
  EXPECT_EQ(map.variant, KernelVariant::kParallel);
  EXPECT_EQ(map.threads, dev->kernel_threads());
  // The device-wide policy is what DeviceRunStats reports.
  const KernelVariantChoice policy =
      dev->ResolveVariant(KernelVariantRequest::kAuto, 0);
  EXPECT_EQ(policy.variant, KernelVariant::kParallel);
  EXPECT_EQ(policy.threads, dev->kernel_threads());
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

/// True when every launch of `kernel` runs the device's native variant, so
/// the walks the pricer replaced already agreed with the device's charge.
bool RunsNative(const SimulatedDevice& dev, const char* kernel,
                const ExecutionOptions& options) {
  if (dev.default_kernel_variant() == KernelVariant::kScalar) return true;
  const KernelVariantChoice choice = dev.ResolveKernelVariant(
      kernel, options.kernel_variant, options.kernel_threads);
  return choice.variant == KernelVariant::kParallel &&
         choice.threads == dev.kernel_threads();
}

bool GraphRunsNative(const PrimitiveGraph& graph, const SimulatedDevice& dev,
                     const ExecutionOptions& options) {
  for (const GraphNode& node : graph.nodes()) {
    if (!RunsNative(dev, GetSignature(node.kind).kernel_name, options)) {
      return false;
    }
  }
  return true;
}

/// Checks one golden value token: "X" (unchanged from the replaced walks)
/// or "X>Y" (moved to the device's own price Y).
void CheckValue(const std::string& token, double actual, bool relative,
                bool native, const std::string& what) {
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
  EXPECT_FALSE(native) << what << ": moved although the launch runs native";
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
    std::string query, driver, variant, threads, model, kind, token;
    fields >> query >> driver >> variant >> threads >> model >> kind;
    std::vector<std::string> values;
    while (fields >> token) values.push_back(token);

    std::vector<KernelVariantRequest> requests(std::begin(kRequests),
                                               std::end(kRequests));
    if (variant != "*") requests = {*ParseKernelVariant(variant)};
    std::vector<int> thread_counts = {0, 1};
    if (threads != "*") thread_counts = {std::stoi(threads)};
    for (KernelVariantRequest request : requests) {
      for (int thread_count : thread_counts) {
        const std::string what =
            line.substr(0, line.find(kind) + kind.size()) +
            " [variant=" + std::to_string(static_cast<int>(request)) +
            " threads=" + std::to_string(thread_count) + "]";
        ExecutionOptions options;
        options.model = model == "oaat" ? ExecutionModelKind::kOperatorAtATime
                                        : ExecutionModelKind::kChunked;
        options.chunk_elems = size_t{1} << 22;
        options.kernel_variant = request;
        options.kernel_threads = thread_count;
        ++checked;

        if (kind == "weights") {
          plan::PlanBundle bundle = rig.Build(query, 0);
          auto prices =
              exec::PriceDevices(*bundle.graph, options, &rig.manager, {0, 3});
          ASSERT_TRUE(prices.ok());
          const std::vector<double> weights = exec::ThroughputWeights(*prices);
          const bool native = GraphRunsNative(
              *bundle.graph, *rig.manager.device(3), options);
          ASSERT_EQ(values.size(), 2u) << what;
          CheckValue(values[0], weights[0], false, native, what);
          CheckValue(values[1], weights[1], false, native, what);
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
                     GraphRunsNative(*bundle.graph, dev, options), what);
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
                       RunsNative(dev, kernel, options),
                       what + " node " + std::to_string(i) + " (" + kernel +
                           ")");
          }
        }
      }
    }
  }
  // 4 queries x (4 drivers x 6 requests x 2 models x 3 kinds + 6 x 2
  // weights + 4 drivers x 6 fusion).
  EXPECT_EQ(checked, 4u * (4 * 6 * 2 * 3 + 6 * 2 + 4 * 6));
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
