// Cross-model parity matrix: Q1/Q3/Q4/Q6 must produce bit-identical extracted
// results under every execution model — including device-parallel split
// across two simulated devices — and the admission-control footprint
// estimate must upper-bound the observed device memory high water for each
// model (the invariant the service layer's budgets rely on).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adamant/adamant.h"

namespace adamant {
namespace {

// ctest reruns this binary, all but the SimulatedClockGates, with
// ADAMANT_FUSION=on (parity_matrix_fused_test): every matrix test then
// executes fused plans, re-checking the same bit-identity invariants in every
// build. Bundle node ids are remapped in place, so result extraction keeps
// working on the fused graph.
Status ApplyEnvFusion(plan::PlanBundle* bundle) {
  const char* env = std::getenv("ADAMANT_FUSION");
  if (env == nullptr || std::string(env) != "on") return Status::OK();
  ExecutionOptions options;
  options.fusion = FusionMode::kOn;
  return plan::ApplyFusion(bundle, options).status();
}

// Every device buffer starts filled with SimulatedDevice::kPoisonByte in
// every build, so a read of memory that no copy or kernel wrote breaks bit
// identity. Poison does not move the simulated clock.
class PoisonDeviceMemory : public ::testing::Environment {
 public:
  void SetUp() override { SimulatedDevice::SetPoisonFill(true); }
};
::testing::Environment* const kPoisonDeviceMemory =
    ::testing::AddGlobalTestEnvironment(new PoisonDeviceMemory);

struct MatrixFixture {
  std::shared_ptr<Catalog> catalog;

  static const MatrixFixture& Get() {
    static const MatrixFixture* const kFixture = [] {
      auto* fixture = new MatrixFixture();
      tpch::TpchConfig config;
      config.scale_factor = 0.002;
      auto catalog = tpch::Generate(config);
      ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
      fixture->catalog = *catalog;
      return fixture;
    }();
    return *kFixture;
  }
};

const ExecutionModelKind kAllModels[] = {
    ExecutionModelKind::kOperatorAtATime,
    ExecutionModelKind::kChunked,
    ExecutionModelKind::kPipelined,
    ExecutionModelKind::kFourPhaseChunked,
    ExecutionModelKind::kFourPhasePipelined,
    ExecutionModelKind::kDeviceParallel,
};

// Two identical simulated GPUs: models run on device 0; device-parallel
// splits across both.
std::unique_ptr<DeviceManager> TwoGpuManager() {
  auto manager = std::make_unique<DeviceManager>();
  for (int i = 0; i < 2; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

ExecutionOptions OptionsFor(ExecutionModelKind model, int kernel_threads = 0) {
  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = 1024;  // several chunks even at SF 0.002
  options.kernel_threads = kernel_threads;
  if (model == ExecutionModelKind::kDeviceParallel) {
    options.device_set = {0, 1};
  }
  if (model == ExecutionModelKind::kPipelined ||
      model == ExecutionModelKind::kFourPhasePipelined) {
    options.pipeline_depth = 2;
  }
  return options;
}

Result<QueryExecution> RunModel(DeviceManager* manager,
                                const plan::PlanBundle& bundle,
                                ExecutionModelKind model) {
  QueryExecutor executor(manager);
  return executor.Run(bundle.graph.get(), OptionsFor(model));
}

TEST(ParityMatrixTest, Q6AllModelsBitIdentical) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = TwoGpuManager();
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto exec = RunModel(manager.get(), *bundle, model);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    auto revenue = plan::ExtractQ6(*bundle, *exec);
    ASSERT_TRUE(revenue.ok()) << ExecutionModelName(model);
    EXPECT_EQ(*revenue, *want) << ExecutionModelName(model);
  }
}

// Q1 is the one multi-aggregate plan: a single five-accumulator HASH_AGG,
// whose partial tables the device-parallel model merges accumulator by
// accumulator. Every model matches the reference, and every run returns
// each byte it charged to the memory ledger.
TEST(ParityMatrixTest, Q1AllModelsBitIdentical) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = TwoGpuManager();
  MemoryLedger ledger(manager.get(), 0);
  auto bundle = plan::BuildQ1(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto want = tpch::Q1Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    ExecutionOptions options = OptionsFor(model);
    options.memory_listener = &ledger;
    QueryExecutor executor(manager.get());
    auto exec = executor.Run(bundle->graph.get(), options);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    auto rows = plan::ExtractQ1(*bundle, *exec);
    ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
    EXPECT_EQ(*rows, *want) << ExecutionModelName(model);
    for (DeviceId device : {0, 1}) {
      EXPECT_EQ(ledger.budget(device).live_bytes(), 0u)
          << ExecutionModelName(model) << " device " << device;
    }
  }
}

TEST(ParityMatrixTest, Q3AllModelsBitIdentical) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = TwoGpuManager();
  auto bundle = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto want = tpch::Q3Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto exec = RunModel(manager.get(), *bundle, model);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    auto rows = plan::ExtractQ3(*bundle, *exec, *fixture.catalog, {});
    ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
    EXPECT_EQ(*rows, *want) << ExecutionModelName(model);
  }
}

TEST(ParityMatrixTest, Q4AllModelsBitIdentical) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = TwoGpuManager();
  auto bundle = plan::BuildQ4(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto want = tpch::Q4Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());
  for (ExecutionModelKind model : kAllModels) {
    auto exec = RunModel(manager.get(), *bundle, model);
    ASSERT_TRUE(exec.ok()) << ExecutionModelName(model) << ": "
                           << exec.status().ToString();
    auto rows = plan::ExtractQ4(*bundle, *exec);
    ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
    EXPECT_EQ(*rows, *want) << ExecutionModelName(model);
  }
}

TEST(ParityMatrixTest, DeviceParallelSplitsAcrossBothDevices) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = TwoGpuManager();
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto exec =
      RunModel(manager.get(), *bundle, ExecutionModelKind::kDeviceParallel);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->stats.devices.size(), 2u);
  size_t split = 0;
  for (const DeviceRunStats& device : exec->stats.devices) {
    EXPECT_GT(device.chunks, 0u) << device.name << " got no chunks";
    split += device.chunks;
  }
  EXPECT_EQ(split, exec->stats.chunks);
}

// --- Four-thread kernels ----------------------------------------------------

// The whole matrix again at a budget of four threads: every model x
// Q1/Q3/Q4/Q6 must still match the host reference bit for bit. The fixture
// devices are GPUs, whose own budget is one thread, and the SF 0.002 matrix
// never launches two tiles, so this case runs SF 0.01 in two-tile chunks:
// every model, each device-parallel partition included, runs tiled launches.
TEST(ParityMatrixTest, AllModelsBitIdenticalWithFourThreadKernels) {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
    return new Catalog(**catalog);
  }();
  struct Case {
    const char* name;
    std::function<Result<plan::PlanBundle>(DeviceId)> build;
    std::function<void(const plan::PlanBundle&, const QueryExecution&,
                       ExecutionModelKind)>
        check;
  };
  const Catalog& catalog = *kCatalog;
  const Case kCases[] = {
      {"Q1", [&](DeviceId d) { return plan::BuildQ1(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q1Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ1(bundle, exec);
         ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*rows, *want) << "Q1/" << ExecutionModelName(model);
       }},
      {"Q3", [&](DeviceId d) { return plan::BuildQ3(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q3Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ3(bundle, exec, catalog, {});
         ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*rows, *want) << "Q3/" << ExecutionModelName(model);
       }},
      {"Q4", [&](DeviceId d) { return plan::BuildQ4(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q4Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ4(bundle, exec);
         ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*rows, *want) << "Q4/" << ExecutionModelName(model);
       }},
      {"Q6", [&](DeviceId d) { return plan::BuildQ6(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q6Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto revenue = plan::ExtractQ6(bundle, exec);
         ASSERT_TRUE(revenue.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*revenue, *want) << "Q6/" << ExecutionModelName(model);
       }}};
  auto manager = TwoGpuManager();
  for (const Case& c : kCases) {
    auto bundle = c.build(0);
    ASSERT_TRUE(bundle.ok());
    ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
    for (ExecutionModelKind model : kAllModels) {
      ExecutionOptions options = OptionsFor(model, kDefaultKernelThreads);
      options.chunk_elems = 2 * kernels::ParallelTileElems();
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(bundle->graph.get(), options);
      ASSERT_TRUE(exec.ok()) << c.name << "/" << ExecutionModelName(model)
                             << ": " << exec.status().ToString();
      c.check(*bundle, *exec, model);
      // The stats must report what actually ran.
      for (const DeviceRunStats& device : exec->stats.devices) {
        if (device.execute_calls == 0) continue;
        EXPECT_EQ(device.kernel_threads, kDefaultKernelThreads)
            << c.name << "/" << ExecutionModelName(model);
        EXPECT_GT(device.parallel_launches, 0u)
            << c.name << "/" << ExecutionModelName(model);
      }
    }
  }
}

// --- Fused composites ------------------------------------------------------

// The whole matrix again with the fusion pass forced on: every model x
// Q3/Q4/Q6 must match the host reference bit for bit when the fusable
// chains run as single FUSED / FUSED_AGG composites, and the per-device
// stats must show those composites actually launching.
TEST(ParityMatrixTest, AllModelsBitIdenticalWithFusionForced) {
  const auto& fixture = MatrixFixture::Get();
  struct Case {
    const char* name;
    std::function<Result<plan::PlanBundle>(DeviceId)> build;
    std::function<void(const plan::PlanBundle&, const QueryExecution&,
                       ExecutionModelKind)>
        check;
  };
  const Catalog& catalog = *fixture.catalog;
  const Case kCases[] = {
      {"Q3", [&](DeviceId d) { return plan::BuildQ3(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q3Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ3(bundle, exec, catalog, {});
         ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*rows, *want) << "Q3/" << ExecutionModelName(model);
       }},
      {"Q4", [&](DeviceId d) { return plan::BuildQ4(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q4Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ4(bundle, exec);
         ASSERT_TRUE(rows.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*rows, *want) << "Q4/" << ExecutionModelName(model);
       }},
      {"Q6", [&](DeviceId d) { return plan::BuildQ6(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           ExecutionModelKind model) {
         auto want = tpch::Q6Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto revenue = plan::ExtractQ6(bundle, exec);
         ASSERT_TRUE(revenue.ok()) << ExecutionModelName(model);
         EXPECT_EQ(*revenue, *want) << "Q6/" << ExecutionModelName(model);
       }}};
  auto manager = TwoGpuManager();
  for (const Case& c : kCases) {
    auto bundle = c.build(0);
    ASSERT_TRUE(bundle.ok());
    ExecutionOptions fuse_options;
    fuse_options.fusion = FusionMode::kOn;
    auto report = plan::ApplyFusion(&*bundle, fuse_options, manager.get());
    ASSERT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();
    ASSERT_GT(report->groups, 0) << c.name << " produced no fused groups";
    for (ExecutionModelKind model : kAllModels) {
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(bundle->graph.get(), OptionsFor(model));
      ASSERT_TRUE(exec.ok()) << c.name << "/" << ExecutionModelName(model)
                             << ": " << exec.status().ToString();
      c.check(*bundle, *exec, model);
      size_t fused_launches = 0;
      for (const DeviceRunStats& device : exec->stats.devices) {
        fused_launches += device.fused_launches;
      }
      EXPECT_GT(fused_launches, 0u)
          << c.name << "/" << ExecutionModelName(model);
    }
  }
}

// --- Footprint estimate upper-bounds observed high water -------------------

// The estimate sizes every output off the capacities the run derives, so
// it also bounds plans whose MAPs read a MATERIALIZE's slack (Q1 and its
// lowered SQL form, whose selectivity sits near 1).
TEST(ParityMatrixTest, EstimateUpperBoundsHighWaterForAllModels) {
  const auto& fixture = MatrixFixture::Get();
  struct Case {
    std::string name;
    std::function<Result<plan::PlanBundle>(DeviceId)> build;
  };
  const Catalog& catalog = *fixture.catalog;
  std::vector<Case> cases = {
      {"Q1", [&](DeviceId d) { return plan::BuildQ1(catalog, {}, d); }},
      {"Q3", [&](DeviceId d) { return plan::BuildQ3(catalog, {}, d); }},
      {"Q4", [&](DeviceId d) { return plan::BuildQ4(catalog, {}, d); }},
      {"Q6", [&](DeviceId d) { return plan::BuildQ6(catalog, {}, d); }}};
  for (const char* builtin :
       {"q1", "q4", "q6", "shipmode_rollup", "priority_window"}) {
    cases.push_back(
        {builtin, [&catalog, builtin](DeviceId d) -> Result<plan::PlanBundle> {
           ADAMANT_ASSIGN_OR_RETURN(
               sql::CompiledQuery query,
               sql::Compile(sql::FindBuiltinQuery(builtin)->sql, catalog));
           return plan::LowerPlan(*query.plan, catalog, d);
         }});
  }
  for (const Case& c : cases) {
    for (ExecutionModelKind model : kAllModels) {
      // Fresh manager per run so high-water marks are not inherited.
      auto manager = TwoGpuManager();
      auto bundle = c.build(0);
      ASSERT_TRUE(bundle.ok()) << c.name << ": " << bundle.status().ToString();
      ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
      const ExecutionOptions options = OptionsFor(model);
      auto estimate = EstimateDeviceMemoryBytes(*bundle->graph, options,
                                                manager->data_scale());
      ASSERT_TRUE(estimate.ok()) << c.name << "/" << ExecutionModelName(model);
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(bundle->graph.get(), options);
      ASSERT_TRUE(exec.ok()) << c.name << "/" << ExecutionModelName(model)
                             << ": " << exec.status().ToString();
      for (const DeviceRunStats& device : exec->stats.devices) {
        EXPECT_GE(*estimate, device.device_mem_high_water)
            << c.name << "/" << ExecutionModelName(model) << " on "
            << device.name;
      }
    }
  }
}

// --- Heterogeneous split ----------------------------------------------------

// Fast + slow device pair for the heterogeneous matrix: device 0 is the
// stock cuda_gpu driver, device 1 is the same model with 4x slower compute
// and a slower bus, so the cost-ratio search genuinely produces an
// asymmetric split.
std::unique_ptr<DeviceManager> HeteroManager(double data_scale = 1) {
  auto manager = std::make_unique<DeviceManager>();
  manager->SetDataScale(data_scale);
  auto fast = manager->AddDriver(sim::DriverKind::kCudaGpu, "cuda_fast.0");
  ADAMANT_CHECK(fast.ok()) << fast.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*fast)).ok());
  DriverProps props =
      MakeDriverProps(sim::DriverKind::kCudaGpu, manager->setup());
  props.model = sim::ScalePerfModel(props.model, 0.25, 0.7);
  auto slow = manager->AddDevice(std::make_unique<SimulatedDevice>(
      "cuda_slow.1", std::move(props.model), props.format,
      props.runtime_compile, manager->sim_context()));
  ADAMANT_CHECK(slow.ok()) << slow.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*slow)).ok());
  return manager;
}

// Q1/Q3/Q4/Q6 across the fast+slow pair, cost-ratio split, with runtime
// rebalancing on and off: every run must match the host reference bit for
// bit — stealing may move chunks between devices but never changes results.
TEST(ParityMatrixTest, HeterogeneousSplitBitIdenticalWithAndWithoutRebalance) {
  const auto& fixture = MatrixFixture::Get();
  const Catalog& catalog = *fixture.catalog;
  struct Case {
    const char* name;
    std::function<Result<plan::PlanBundle>(DeviceId)> build;
    std::function<void(const plan::PlanBundle&, const QueryExecution&,
                       const char*)>
        check;
  };
  const Case kCases[] = {
      {"Q1", [&](DeviceId d) { return plan::BuildQ1(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           const char* tag) {
         auto want = tpch::Q1Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ1(bundle, exec);
         ASSERT_TRUE(rows.ok()) << tag;
         EXPECT_EQ(*rows, *want) << tag;
       }},
      {"Q3", [&](DeviceId d) { return plan::BuildQ3(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           const char* tag) {
         auto want = tpch::Q3Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ3(bundle, exec, catalog, {});
         ASSERT_TRUE(rows.ok()) << tag;
         EXPECT_EQ(*rows, *want) << tag;
       }},
      {"Q4", [&](DeviceId d) { return plan::BuildQ4(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           const char* tag) {
         auto want = tpch::Q4Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto rows = plan::ExtractQ4(bundle, exec);
         ASSERT_TRUE(rows.ok()) << tag;
         EXPECT_EQ(*rows, *want) << tag;
       }},
      {"Q6", [&](DeviceId d) { return plan::BuildQ6(catalog, {}, d); },
       [&](const plan::PlanBundle& bundle, const QueryExecution& exec,
           const char* tag) {
         auto want = tpch::Q6Reference(catalog, {});
         ASSERT_TRUE(want.ok());
         auto revenue = plan::ExtractQ6(bundle, exec);
         ASSERT_TRUE(revenue.ok()) << tag;
         EXPECT_EQ(*revenue, *want) << tag;
       }}};
  auto manager = HeteroManager();
  for (const Case& c : kCases) {
    auto bundle = c.build(0);
    ASSERT_TRUE(bundle.ok());
    ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
    for (bool rebalance : {true, false}) {
      SCOPED_TRACE(std::string(c.name) +
                   (rebalance ? "/rebalance" : "/static"));
      ExecutionOptions options = OptionsFor(ExecutionModelKind::kDeviceParallel);
      options.split_rebalance = rebalance;
      QueryExecutor executor(manager.get());
      auto exec = executor.Run(bundle->graph.get(), options);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      // The driver must have recorded an asymmetric cost-ratio split for
      // the pair (fast share strictly above even).
      ASSERT_EQ(exec->stats.devices.size(), 2u);
      EXPECT_GT(exec->stats.devices[0].split_share, 0.5);
      EXPECT_GT(exec->stats.devices[1].split_share, 0.0);
      c.check(*bundle, *exec, c.name);
    }
  }
}

// Seeded mid-run cancellation on a deliberately asymmetric split: the
// canceller fires at a randomized point while the rebalancer is stealing
// from the overloaded slow device. Every cancelled run must unwind cleanly
// as Cancelled, and every surviving (and one final clean) run must stay
// bit-identical to the reference.
TEST(ParityMatrixTest, HeterogeneousSeededCancellationOnAsymmetricSplit) {
  const auto& fixture = MatrixFixture::Get();
  auto manager = HeteroManager();
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(ApplyEnvFusion(&*bundle).ok());
  auto want = tpch::Q6Reference(*fixture.catalog, {});
  ASSERT_TRUE(want.ok());

  std::mt19937 rng(29);
  std::uniform_int_distribution<int> delay_us(0, 4000);
  size_t cancelled_runs = 0;
  for (int iter = 0; iter < 6; ++iter) {
    CancelToken token;
    // Iteration 0 cancels before dispatch (deterministically Cancelled);
    // the rest fire at a randomized point of the run.
    if (iter == 0) token.Cancel(CancelCause::kUser, "pre-dispatch cancel");
    std::thread canceller([&token, delay = delay_us(rng)] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      token.Cancel(CancelCause::kUser, "hetero soak cancel");
    });
    ExecutionOptions options = OptionsFor(ExecutionModelKind::kDeviceParallel);
    // Mis-set split (most work on the slow device) so rebalancing steals
    // while the cancel lands.
    options.device_split = {0.2, 0.8};
    options.cancel_token = &token;
    QueryExecutor executor(manager.get());
    auto exec = executor.Run(bundle->graph.get(), options);
    canceller.join();
    if (exec.ok()) {
      auto revenue = plan::ExtractQ6(*bundle, *exec);
      ASSERT_TRUE(revenue.ok());
      EXPECT_EQ(*revenue, *want) << "surviving run, iter " << iter;
    } else {
      EXPECT_TRUE(exec.status().IsCancelled()) << exec.status().ToString();
      ++cancelled_runs;
    }
  }
  // A clean run after the soak: the devices are perfectly reusable.
  ExecutionOptions clean = OptionsFor(ExecutionModelKind::kDeviceParallel);
  clean.device_split = {0.2, 0.8};
  QueryExecutor executor(manager.get());
  auto exec = executor.Run(bundle->graph.get(), clean);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto revenue = plan::ExtractQ6(*bundle, *exec);
  ASSERT_TRUE(revenue.ok());
  EXPECT_EQ(*revenue, *want);
  // With a zero-to-4ms fuse across six iterations at least one cancel
  // should land mid-run; if the runs got too fast to ever catch, that is
  // worth noticing rather than silently passing.
  EXPECT_GT(cancelled_runs, 0u);
}

// --- Simulated-clock gates at the paper's scale ------------------------------
//
// SF 0.02 generated and charged as SF 30, the larger-than-memory regime,
// through CompileQuery with fusion off (the gates measure the primitive
// plans). Every bound is on the deterministic simulated clock, and every
// run must match the scalar reference bit for bit.

constexpr double kGateScale = 30 / 0.02;

const Catalog& GateCatalog() {
  static const Catalog* const kCatalog = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.02;
    config.include_dimension_tables = false;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
    return new Catalog(**catalog);
  }();
  return *kCatalog;
}

std::unique_ptr<DeviceManager> GpuManager(int devices) {
  auto manager = std::make_unique<DeviceManager>();
  manager->SetDataScale(kGateScale);
  for (int i = 0; i < devices; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

Result<plan::PlanBundle> BuildGateQuery(int query) {
  const Catalog& catalog = GateCatalog();
  if (query == 3) return plan::BuildQ3(catalog, {}, 0);
  if (query == 4) return plan::BuildQ4(catalog, {}, 0);
  return plan::BuildQ6(catalog, {}, 0);
}

/// Chunked, or device-parallel across `devices` (rebalancing on), in
/// 2^22-element chunks (~43 lineitem chunks, so a split has granularity).
ExecutionOptions GateOptions(std::vector<DeviceId> devices = {},
                             std::vector<double> split = {}) {
  ExecutionOptions options;
  options.chunk_elems = size_t{1} << 22;
  options.fusion = FusionMode::kOff;
  if (!devices.empty()) {
    options.model = ExecutionModelKind::kDeviceParallel;
    options.device_set = std::move(devices);
    options.device_split = std::move(split);
  }
  return options;
}

/// The paper's 2^25-element chunks.
ExecutionOptions WideChunks(ExecutionOptions options) {
  options.chunk_elems = size_t{1} << 25;
  return options;
}

struct GateRun {
  double elapsed_us = 0;
  std::vector<double> split;  // the compiled device-parallel shares
};

/// Compiles hand-built Q3/Q4/Q6 under `options`, runs it, and checks the
/// result against the scalar reference.
Result<GateRun> RunGate(DeviceManager* manager, int query,
                        const ExecutionOptions& options) {
  const Catalog& catalog = GateCatalog();
  QuerySource source;
  ADAMANT_ASSIGN_OR_RETURN(source.bundle, BuildGateQuery(query));
  CompileContext context;
  context.catalog = &catalog;
  context.manager = manager;
  context.placement = plan::PlacementPolicy::AllOn(0);
  context.options = options;
  ADAMANT_ASSIGN_OR_RETURN(CompiledPlan plan,
                           CompileQuery(std::move(source), context));
  QueryExecutor executor(manager);
  ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                           executor.Run(plan.bundle.graph.get(), plan.options));
  bool match = false;
  if (query == 3) {
    ADAMANT_ASSIGN_OR_RETURN(auto got,
                             plan::ExtractQ3(plan.bundle, exec, catalog, {}));
    ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q3Reference(catalog, {}));
    match = got == want;
  } else if (query == 4) {
    ADAMANT_ASSIGN_OR_RETURN(auto got, plan::ExtractQ4(plan.bundle, exec));
    ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q4Reference(catalog, {}));
    match = got == want;
  } else {
    ADAMANT_ASSIGN_OR_RETURN(auto got, plan::ExtractQ6(plan.bundle, exec));
    ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q6Reference(catalog, {}));
    match = got == want;
  }
  if (!match) {
    return Status::ExecutionError(
        (testing::Message() << "Q" << query
                            << " differs from the scalar reference")
            .GetString());
  }
  return GateRun{exec.stats.elapsed_us, plan.options.device_split};
}

// A fast+slow pair (4x slower compute, 0.7x bus) split by the cost ratio
// CompileQuery prices: Q6 runs >= 1.3x faster than on the fast device
// alone (the model gives 1.63x) and Q3 faster at all; with the
// fast device's share mis-set to half, runtime rebalancing recovers >= 80%
// of the gap to the well-set split.
TEST(SimulatedClockGates, HeterogeneousCostRatioSplit) {
  for (int query : {6, 3}) {
    SCOPED_TRACE(testing::Message() << "Q" << query);
    auto manager = HeteroManager(kGateScale);
    auto alone = RunGate(manager.get(), query, GateOptions());
    auto well = RunGate(manager.get(), query, GateOptions({0, 1}));
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    ASSERT_TRUE(well.ok()) << well.status().ToString();
    // The priced split favours the fast device.
    ASSERT_EQ(well->split.size(), 2u);
    EXPECT_GT(well->split[0], 0.5);
    const std::vector<double> misset = {well->split[0] / 2,
                                        1 - well->split[0] / 2};
    ExecutionOptions mis = GateOptions({0, 1}, misset);
    mis.split_rebalance = false;
    auto mis_static = RunGate(manager.get(), query, mis);
    mis.split_rebalance = true;
    auto mis_rebalanced = RunGate(manager.get(), query, mis);
    ExecutionOptions even = GateOptions({0, 1}, {0.5, 0.5});
    even.split_rebalance = false;
    auto even_static = RunGate(manager.get(), query, even);
    ASSERT_TRUE(mis_static.ok()) << mis_static.status().ToString();
    ASSERT_TRUE(mis_rebalanced.ok()) << mis_rebalanced.status().ToString();
    ASSERT_TRUE(even_static.ok()) << even_static.status().ToString();

    if (query == 6) {
      EXPECT_GE(alone->elapsed_us / well->elapsed_us, 1.3);
    } else {
      EXPECT_LT(well->elapsed_us, alone->elapsed_us);
    }
    const double gap = mis_static->elapsed_us - well->elapsed_us;
    ASSERT_GT(gap, 0) << "the mis-set split is not slower";
    EXPECT_GE((mis_static->elapsed_us - mis_rebalanced->elapsed_us) / gap, 0.8);
  }
}

// On two identical devices the cost-ratio path (rebalancing on) stays
// within 5% of the static even split.
TEST(SimulatedClockGates, HomogeneousCostRatioSplitMatchesEvenSplit) {
  for (int query : {6, 3}) {
    SCOPED_TRACE(testing::Message() << "Q" << query);
    auto manager = GpuManager(2);
    ExecutionOptions even = GateOptions({0, 1}, {0.5, 0.5});
    even.split_rebalance = false;
    auto legacy = RunGate(manager.get(), query, even);
    auto priced = RunGate(manager.get(), query, GateOptions({0, 1}));
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ASSERT_TRUE(priced.ok()) << priced.status().ToString();
    EXPECT_LE(priced->elapsed_us, legacy->elapsed_us * 1.05);
  }
}

// Device-parallel across 2 and 4 identical GPUs against chunked on one:
// Q6 x2 beats chunked and the merge-cost estimate admits it, the estimate
// rejects Q4 x2 (its interior hash table round-trips through the host and
// the run is ~0.54x), and no admitted point runs below 0.95x.
TEST(SimulatedClockGates, DeviceParallelScalingAndMergeGate) {
  for (int query : {3, 4, 6}) {
    auto baseline =
        RunGate(GpuManager(1).get(), query, WideChunks(GateOptions()));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (int devices : {2, 4}) {
      SCOPED_TRACE(testing::Message() << "Q" << query << " x" << devices);
      auto manager = GpuManager(devices);
      std::vector<DeviceId> set;
      for (int i = 0; i < devices; ++i) set.push_back(i);
      auto bundle = BuildGateQuery(query);
      ASSERT_TRUE(bundle.ok());
      auto merge = plan::EstimateDeviceParallelMerge(
          *bundle->graph, manager.get(), set, baseline->elapsed_us);
      ASSERT_TRUE(merge.ok()) << merge.status().ToString();
      const bool admitted = !merge->merge_dominated;
      auto run = RunGate(manager.get(), query, WideChunks(GateOptions(set)));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const double speedup = baseline->elapsed_us / run->elapsed_us;
      if (admitted) {
        EXPECT_GE(speedup, 0.95);
      }
      if (devices == 2 && query == 4) {
        EXPECT_FALSE(admitted);
      }
      if (devices == 2 && query == 6) {
        EXPECT_TRUE(admitted);
        EXPECT_GT(speedup, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace adamant
