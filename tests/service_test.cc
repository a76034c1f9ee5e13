// Service-layer tests: scheduler determinism against serial runs, memory
// budgets (lease only devices that can hold a query), the cross-query
// device column cache, and the scheduler building blocks.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adamant/adamant.h"

namespace adamant {
namespace {

struct ServiceFixture {
  std::shared_ptr<Catalog> catalog;

  static const ServiceFixture& Get() {
    static const ServiceFixture* const kFixture = [] {
      auto* fixture = new ServiceFixture();
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

QuerySpec SpecFor(const Catalog* catalog, int kind) {
  QuerySpec spec;
  if (kind == 0) {
    spec.name = "Q3";
    spec.make_graph =
        [catalog](DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
      ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                               plan::BuildQ3(*catalog, {}, device));
      return std::move(bundle.graph);
    };
  } else if (kind == 1) {
    spec.name = "Q4";
    spec.make_graph =
        [catalog](DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
      ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                               plan::BuildQ4(*catalog, {}, device));
      return std::move(bundle.graph);
    };
  } else {
    spec.name = "Q6";
    spec.make_graph =
        [catalog](DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
      ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                               plan::BuildQ6(*catalog, {}, device));
      return std::move(bundle.graph);
    };
  }
  return spec;
}

// --- Scheduler building blocks -------------------------------------------

TEST(MemoryBudgetTest, LiveChargeTracksHighWater) {
  MemoryBudget budget(100);
  budget.Charge(30);
  budget.Charge(50);
  budget.Credit(40);
  EXPECT_EQ(budget.live_bytes(), 40u);
  EXPECT_EQ(budget.live_high_water(), 80u);
}

TEST(AdmissionQueueTest, PriorityThenFifo) {
  AdmissionQueue queue(8);
  auto make = [](const std::string& name, QueryPriority priority) {
    auto query = std::make_shared<QueuedQuery>();
    query->spec.name = name;
    query->spec.priority = priority;
    return query;
  };
  queue.Push(make("n1", QueryPriority::kNormal));
  queue.Push(make("n2", QueryPriority::kNormal));
  queue.Push(make("h1", QueryPriority::kHigh));

  auto any = [](const QueuedQuery&) { return true; };
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "h1");
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "n1");
  EXPECT_EQ(queue.PopFirst(any)->spec.name, "n2");
  EXPECT_EQ(queue.PopFirst(any), nullptr);
}

TEST(AdmissionQueueTest, PopFirstSkipsInadmissible) {
  AdmissionQueue queue(8);
  for (const char* name : {"a", "b", "c"}) {
    auto query = std::make_shared<QueuedQuery>();
    query->spec.name = name;
    queue.Push(std::move(query));
  }
  auto picked = queue.PopFirst(
      [](const QueuedQuery& query) { return query.spec.name == "b"; });
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->spec.name, "b");
  EXPECT_EQ(queue.size(), 2u);  // a and c keep their places
}

TEST(DeviceSlotTableTest, PicksFirstFreeCandidatesSortedById) {
  DeviceSlotTable slots(3);
  using Set = std::vector<DeviceId>;
  EXPECT_EQ(slots.PickFreeSet({0, 1, 2}, 1), Set{0});
  // Candidate order decides which free devices join; the set is by id.
  EXPECT_EQ(slots.PickFreeSet({2, 0, 1}, 2), (Set{0, 2}));
  slots.Acquire(0);
  EXPECT_EQ(slots.PickFreeSet({0, 1, 2}, 1), Set{1});
  EXPECT_EQ(slots.PickFreeSet({0}, 1), Set{});
  // Fewer free devices than the lease needs: the caller waits.
  EXPECT_EQ(slots.PickFreeSet({0, 1}, 2), Set{1});
  slots.Release(0);
  EXPECT_EQ(slots.PickFreeSet({0, 1}, 2), (Set{0, 1}));
}

// --- The seeded mixed workload matches serial execution -------------------

TEST(QueryServiceTest, SeededMixedWorkloadMatchesSerial) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  // Serial references (and template bundles for extraction: node ids are
  // deterministic per builder).
  QueryExecutor executor(&manager);
  auto q3_bundle = plan::BuildQ3(*fixture.catalog, {}, 0);
  auto q4_bundle = plan::BuildQ4(*fixture.catalog, {}, 0);
  auto q6_bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(q3_bundle.ok() && q4_bundle.ok() && q6_bundle.ok());
  auto q3_exec = executor.Run(q3_bundle->graph.get(), {});
  auto q4_exec = executor.Run(q4_bundle->graph.get(), {});
  auto q6_exec = executor.Run(q6_bundle->graph.get(), {});
  ASSERT_TRUE(q3_exec.ok() && q4_exec.ok() && q6_exec.ok());
  auto q3_ref = plan::ExtractQ3(*q3_bundle, *q3_exec, *fixture.catalog, {});
  auto q4_ref = plan::ExtractQ4(*q4_bundle, *q4_exec);
  auto q6_ref = plan::ExtractQ6(*q6_bundle, *q6_exec);
  ASSERT_TRUE(q3_ref.ok() && q4_ref.ok() && q6_ref.ok());

  ServiceConfig config;
  config.workers = 4;
  QueryService service(&manager, config);

  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 2);
  std::vector<int> kinds;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 50; ++i) {
    const int kind = pick(rng);
    auto ticket = service.Submit(SpecFor(fixture.catalog.get(), kind));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    kinds.push_back(kind);
    tickets.push_back(*ticket);
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    const Result<QueryExecution>& result = tickets[i]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (kinds[i] == 0) {
      auto rows = plan::ExtractQ3(*q3_bundle, *result, *fixture.catalog, {});
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(*rows, *q3_ref) << "query " << i;
    } else if (kinds[i] == 1) {
      auto rows = plan::ExtractQ4(*q4_bundle, *result);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(*rows, *q4_ref) << "query " << i;
    } else {
      auto revenue = plan::ExtractQ6(*q6_bundle, *result);
      ASSERT_TRUE(revenue.ok());
      EXPECT_EQ(*revenue, *q6_ref) << "query " << i;
    }
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.admitted, 50u);
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.failed, 0u);
  size_t by_device = 0;
  for (const auto& device : stats.devices) {
    by_device += device.completed;
    // One query per device at a time: the live meter stays within budget.
    EXPECT_LE(device.live_high_water, device.budget_capacity);
    if (device.completed > 0) {
      EXPECT_GT(device.live_high_water, 0u);
    }
  }
  EXPECT_EQ(by_device, 50u);
  EXPECT_FALSE(stats.ToJson().empty());
}

// --- Selectivity feedback: repeated served runs tighten predictions -------

// Mean selectivity q-error over the selective operators of one run's
// EXPLAIN ANALYZE tree.
double MeanSelectivityQError(const std::vector<obs::OperatorStats>& ops) {
  double sum = 0;
  size_t n = 0;
  for (const obs::OperatorStats& op : ops) {
    if (!op.selective || op.rows_in == 0) continue;
    sum += obs::QError(op.predicted_selectivity, op.ActualSelectivity());
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 1.0;
}

TEST(QueryServiceTest, RepeatedServedRunsTightenPredictions) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;  // sequential: run N's feedback applies to run N+1
  QueryService service(&manager, config);

  // Four identical served Q3 runs. The ticket result carries the operator
  // tree, so each run's predicted-vs-actual gap is directly measurable.
  std::vector<double> run_qerror;
  std::vector<std::vector<int32_t>> run_orderkeys;
  auto q3_bundle = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(q3_bundle.ok());
  for (int run = 0; run < 4; ++run) {
    auto ticket = service.Submit(SpecFor(fixture.catalog.get(), 0));
    ASSERT_TRUE(ticket.ok());
    const Result<QueryExecution>& result = (*ticket)->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<obs::OperatorStats>& ops =
        result->stats.profile.operators;
    ASSERT_FALSE(ops.empty()) << "run " << run;
    run_qerror.push_back(MeanSelectivityQError(ops));
    auto rows = plan::ExtractQ3(*q3_bundle, *result, *fixture.catalog, {});
    ASSERT_TRUE(rows.ok());
    std::vector<int32_t> keys;
    for (const auto& row : *rows) keys.push_back(row.orderkey);
    run_orderkeys.push_back(std::move(keys));
  }
  service.Drain();

  // Feedback observed every clean completion...
  EXPECT_EQ(service.calibration().RunsObserved("Q3"), 4u);
  // ...and the later runs' predictions are measurably tighter than the
  // first (cold) run's. Q3's cold probe estimate is off by >10x, so the
  // tightening is far beyond noise.
  EXPECT_LT(run_qerror.back(), run_qerror.front() * 0.5)
      << "cold " << run_qerror.front() << " warm " << run_qerror.back();
  EXPECT_LT(run_qerror.back(), 2.0);
  // The feedback override must never change the answer.
  for (size_t i = 1; i < run_orderkeys.size(); ++i) {
    EXPECT_EQ(run_orderkeys[i], run_orderkeys[0]) << "run " << i;
  }

  // The cache's view is directly queryable, and applying it to a freshly
  // lowered graph moves the stamped selectivities.
  auto fresh = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(service.calibration().ApplyToGraph("Q3", fresh->graph.get()), 0);
  // An unknown query name leaves graphs untouched.
  auto other = plan::BuildQ3(*fixture.catalog, {}, 0);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(service.calibration().ApplyToGraph("nope", other->graph.get()), 0);
}

// --- Query history ring + slow-query retention ----------------------------

TEST(QueryServiceTest, HistoryRingIsBoundedAndNonSlowEntriesDropOperators) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  config.history_capacity = 4;
  // run_ms can never exceed 2x a generous deadline: nothing is slow.
  config.slow_query_fraction = 2.0;
  QueryService service(&manager, config);
  for (int i = 0; i < 10; ++i) {
    QuerySpec spec = SpecFor(fixture.catalog.get(), 2);
    spec.deadline_ms = 60000;
    auto ticket = service.Submit(std::move(spec));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE((*ticket)->Wait().ok());
  }
  service.Drain();

  const std::string json = service.HistoryJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"finished\":10"), std::string::npos) << json;
  // Ring trimmed to capacity: oldest ids gone, newest (id 10) first.
  EXPECT_EQ(json.find("\"id\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":10,"), std::string::npos) << json;
  size_t entries = 0;
  for (size_t pos = json.find("\"id\":"); pos != std::string::npos;
       pos = json.find("\"id\":", pos + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 4u);
  // Non-slow entries drop the operator tree (bounded memory).
  EXPECT_EQ(json.find("\"operators\""), std::string::npos);
  EXPECT_EQ(service.GetStats().slow_queries, 0u);
}

TEST(QueryServiceTest, SlowQueryRetainsOperatorTreeInHistory) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  // Any nonzero run time exceeds 0 x deadline: every query is "slow".
  config.slow_query_fraction = 0.0;
  QueryService service(&manager, config);
  QuerySpec spec = SpecFor(fixture.catalog.get(), 0);
  spec.deadline_ms = 60000;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE((*ticket)->Wait().ok());
  service.Drain();

  const std::string json = service.HistoryJson();
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"operators\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"feedback\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_predicted_ms\""), std::string::npos) << json;
  EXPECT_EQ(service.GetStats().slow_queries, 1u);
}

// --- Memory budgets: lease only devices that can hold the query ---------

TEST(QueryServiceTest, PlacesQueryOnDeviceWithBudgetHeadroom) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);    // 11 GiB arena
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);  // 64 GiB arena
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());

  auto probe = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(probe.ok());
  auto estimate =
      EstimateDeviceMemoryBytes(*probe->graph, {}, manager.data_scale());
  ASSERT_TRUE(estimate.ok());
  ASSERT_GT(*estimate, 1u);

  // Default budgets are arena capacity minus the cache budget. Size the
  // cache so device 0 — the tie-break winner when everything is idle —
  // ends up with less headroom than the query needs while device 1 keeps
  // plenty: the scheduler must fall through to device 1 rather than park
  // the query on device 0 forever (it would never dispatch).
  const size_t gpu_arena = manager.device(0)->device_arena().capacity();
  ASSERT_GT(gpu_arena, *estimate);
  ServiceConfig config;
  config.workers = 2;
  config.cache_budget_bytes = gpu_arena - *estimate / 2;
  QueryService service(&manager, config);

  auto ticket = service.Submit(SpecFor(fixture.catalog.get(), 2));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE((*ticket)->Wait().ok())
      << (*ticket)->Wait().status().ToString();
  EXPECT_EQ((*ticket)->placed_device(), 1);
  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// A retry that has tried every device that can hold its query goes back to
// one of them, never to a device whose budget is too small. (One worker and
// a deadline make a regression fail, not hang.)
TEST(QueryServiceTest, RetryNeverStrandsOnADeviceThatCannotHoldIt) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu, "openmp_cpu",
                               FaultPlan::FailNth(InterfaceCall::kExecute, 1));
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());

  auto probe = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(probe.ok());
  auto estimate =
      EstimateDeviceMemoryBytes(*probe->graph, {}, manager.data_scale());
  ASSERT_TRUE(estimate.ok());
  ASSERT_GT(*estimate, 1u);

  // The GPU's budget (arena minus cache budget) is below Q6's estimate, so
  // only the CPU can hold it; the CPU's first Execute fails.
  const size_t gpu_arena = manager.device(*gpu)->device_arena().capacity();
  ASSERT_GT(gpu_arena, *estimate);
  ServiceConfig config;
  config.workers = 1;
  config.cache_budget_bytes = gpu_arena - *estimate / 2;
  QueryService service(&manager, config);
  ASSERT_LT(service.ledger().budget(*gpu).capacity(), *estimate);

  QuerySpec spec = SpecFor(fixture.catalog.get(), 2);
  spec.deadline_ms = 3000;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*ticket)->attempts(), 2u);
  EXPECT_EQ((*ticket)->placed_device(), *cpu);

  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.requeues, 1u);
  EXPECT_EQ(stats.deadline_evictions, 0u);
}

TEST(QueryServiceTest, RejectsQueryLargerThanEveryBudget) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.query_budget_bytes = 1;  // nothing fits
  QueryService service(&manager, config);
  auto ticket = service.Submit(SpecFor(fixture.catalog.get(), 2));
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kOutOfMemory);
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
}

// --- Cross-query column cache ---------------------------------------------

TEST(QueryServiceTest, SecondRunHitsColumnCache) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);

  auto first = service.Submit(SpecFor(fixture.catalog.get(), 2));
  ASSERT_TRUE(first.ok());
  const Result<QueryExecution>& first_result = (*first)->Wait();
  ASSERT_TRUE(first_result.ok());
  const size_t hits_after_first = service.GetStats().cache.hits;

  auto second = service.Submit(SpecFor(fixture.catalog.get(), 2));
  ASSERT_TRUE(second.ok());
  const Result<QueryExecution>& second_result = (*second)->Wait();
  ASSERT_TRUE(second_result.ok());

  ServiceStats stats = service.GetStats();
  EXPECT_GT(stats.cache.hits, hits_after_first);
  EXPECT_GT(stats.cache.bytes_saved, 0u);
  // The cached run produced the same answer.
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  auto a = plan::ExtractQ6(*bundle, *first_result);
  auto b = plan::ExtractQ6(*bundle, *second_result);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  // The executor surfaced the hits in its own stats too.
  EXPECT_GT(second_result->stats.scan_cache_hits, 0u);
  EXPECT_GT(second_result->stats.bytes_h2d_saved, 0u);
}

// --- Multi-device leases (device-parallel model) ---------------------------

TEST(QueryServiceTest, MultiDeviceLeaseRunsDeviceParallel) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }

  // Serial reference.
  QueryExecutor executor(&manager);
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  auto ref_exec = executor.Run(bundle->graph.get(), {});
  ASSERT_TRUE(ref_exec.ok());
  auto ref = plan::ExtractQ6(*bundle, *ref_exec);
  ASSERT_TRUE(ref.ok());

  ServiceConfig config;
  config.workers = 2;
  QueryService service(&manager, config);

  QuerySpec spec = SpecFor(fixture.catalog.get(), 2);
  spec.options.model = ExecutionModelKind::kDeviceParallel;
  spec.options.chunk_elems = 2048;  // several chunks so both devices split
  spec.parallel_devices = 2;
  auto ticket = service.Submit(spec);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Same answer as the serial run, and the lease covered both devices.
  auto got = plan::ExtractQ6(*bundle, *result);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *ref);
  EXPECT_EQ((*ticket)->placed_devices().size(), 2u);
  size_t split_chunks = 0;
  size_t partitions = 0;
  for (const DeviceRunStats& device : result->stats.devices) {
    split_chunks += device.chunks;
    if (device.split_share > 0) ++partitions;
  }
  EXPECT_EQ(split_chunks, result->stats.chunks);
  EXPECT_EQ(partitions, 2u);

  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(QueryServiceTest, MultiDeviceLeaseValidatesSpec) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  for (int i = 0; i < 2; ++i) {
    auto device = manager.AddDriver(sim::DriverKind::kCudaGpu,
                                    "gpu." + std::to_string(i));
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  }
  QueryService service(&manager, {});

  // parallel_devices > 1 without the device-parallel model is a spec error.
  QuerySpec wrong_model = SpecFor(fixture.catalog.get(), 2);
  wrong_model.parallel_devices = 2;
  EXPECT_TRUE(service.Submit(wrong_model).status().IsInvalidArgument());

  // More devices than the eligible pool can never dispatch.
  QuerySpec too_many = SpecFor(fixture.catalog.get(), 2);
  too_many.options.model = ExecutionModelKind::kDeviceParallel;
  too_many.parallel_devices = 3;
  EXPECT_TRUE(service.Submit(too_many).status().IsInvalidArgument());
}

// A k-device lease takes k devices whose budget holds the estimate, so
// Submit rejects a query that fewer than k eligible budgets can hold:
// queued, it would never dispatch. (The deadline makes a regression fail,
// not hang.)
TEST(QueryServiceTest, MultiDeviceLeaseNeedsThatManyBudgetsToHoldIt) {
  const auto& fixture = ServiceFixture::Get();
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  ASSERT_TRUE(gpu.ok() && cpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*cpu)).ok());
  manager.SetDataScale(50000);  // the SF 0.002 fixture charged as SF 100
  QueryService service(&manager, {});  // budgets 8.25 and 61.25 GiB

  QuerySpec spec = SpecFor(fixture.catalog.get(), 2);
  spec.options.model = ExecutionModelKind::kDeviceParallel;
  spec.options.chunk_elems = size_t{1} << 30;
  auto bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(bundle.ok());
  auto estimate = EstimateDeviceMemoryBytes(*bundle->graph, spec.options,
                                            manager.data_scale());
  ASSERT_TRUE(estimate.ok());
  // The per-device estimate (about 16 GiB) fits the CPU's budget only.
  ASSERT_GT(*estimate, service.ledger().budget(*gpu).capacity());
  ASSERT_LE(*estimate, service.ledger().budget(*cpu).capacity());

  QuerySpec pair = spec;
  pair.parallel_devices = 2;
  pair.deadline_ms = 1500;
  auto rejected = service.Submit(pair);
  // Admitted, the pair lease could never dispatch: only its deadline would
  // end it (evicted as DeadlineExceeded).
  if (rejected.ok()) (*rejected)->Wait();
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfMemory)
      << rejected.status().ToString();

  // A one-device lease of the same query fits and runs on the CPU.
  auto ticket = service.Submit(spec);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE((*ticket)->Wait().ok())
      << (*ticket)->Wait().status().ToString();
  EXPECT_EQ((*ticket)->placed_devices(), std::vector<DeviceId>{*cpu});

  service.Drain();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ColumnCacheTest, EvictionSkipsPinnedEntries) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  auto column_a = std::make_shared<Column>("a", ElementType::kInt32);
  auto column_b = std::make_shared<Column>("b", ElementType::kInt32);
  column_a->Resize(256);
  column_b->Resize(256);
  const size_t bytes = column_a->byte_size();

  // Budget holds exactly one chunk.
  DeviceColumnCache cache(&manager, bytes);

  auto lease_a = cache.Acquire(0, column_a, 0, 256, bytes);
  ASSERT_TRUE(lease_a.ok());
  ASSERT_TRUE(lease_a->cached);
  EXPECT_FALSE(lease_a->hit);

  // While A is pinned the budget is exhausted and nothing is evictable:
  // B must be declined, not evict A.
  auto lease_b = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b.ok());
  EXPECT_FALSE(lease_b->cached);
  EXPECT_EQ(cache.GetStats().bypasses, 1u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);

  // Unpinned (and filled), A becomes the LRU victim.
  cache.Release(lease_a->token);
  auto lease_b2 = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b2.ok());
  EXPECT_TRUE(lease_b2->cached);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  cache.Release(lease_b2->token);

  // A re-acquire of A is a miss again (it was evicted), and a re-acquire of
  // B hits.
  auto lease_b3 = cache.Acquire(0, column_b, 0, 256, bytes);
  ASSERT_TRUE(lease_b3.ok());
  EXPECT_TRUE(lease_b3->hit);
  cache.Release(lease_b3->token);
}

TEST(ColumnCacheTest, HubEvictsUnpinnedEntriesBeforeOom) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  // Scale so one 4 KiB chunk charges ~60% of the device arena: the cached
  // chunk and a second allocation cannot both be resident.
  const size_t capacity = manager.device(0)->device_arena().capacity();
  const size_t chunk = 4096;
  manager.SetDataScale(static_cast<double>(capacity) * 0.6 /
                       static_cast<double>(chunk));

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(chunk / sizeof(int32_t));
  DeviceColumnCache cache(&manager, capacity);  // arena, not cache, binds
  DataTransferHub hub(&manager, DataContainer::WithDefaultTransforms());
  hub.set_scan_cache(&cache);

  auto lease = cache.Acquire(0, column, 0, chunk / sizeof(int32_t), chunk);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(lease->cached);
  cache.Release(lease->token);  // unpinned but still resident

  // A query allocation that no longer fits next to the cached chunk must
  // evict it and succeed instead of surfacing the arena's OutOfMemory.
  std::vector<uint8_t> src(chunk, 0);
  auto buf = hub.LoadData(0, src.data(), chunk);
  ASSERT_TRUE(buf.ok()) << buf.status().ToString();
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ColumnCacheTest, InvalidateDropsEntry) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(64);
  const size_t bytes = column->byte_size();
  DeviceColumnCache cache(&manager, bytes * 4);

  auto lease = cache.Acquire(0, column, 0, 64, bytes);
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(lease->cached);
  cache.Invalidate(lease->token);

  auto again = cache.Acquire(0, column, 0, 64, bytes);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->hit);  // the poisoned entry did not survive
  cache.Release(again->token);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
}

}  // namespace
}  // namespace adamant
