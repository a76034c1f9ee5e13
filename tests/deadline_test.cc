// Deadline / cancellation tests: the CancelToken carrier, cooperative
// unwinding through every execution model (ledger drains to zero, results
// stay bit-identical on re-run), the WorkerPool tile-claim cancel, the
// transfer hub's pre-transfer checks, and the service-layer SLO machinery —
// admission shedding, queue eviction, mid-run deadline cancellation, and
// the hung-device watchdog quarantining a stalled device exactly like a
// crasher.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adamant/adamant.h"
#include "common/cancel.h"
#include "task/worker_pool.h"

namespace adamant {
namespace {

struct DeadlineFixture {
  std::shared_ptr<Catalog> catalog;

  static const DeadlineFixture& Get() {
    static const DeadlineFixture* const kFixture = [] {
      auto* fixture = new DeadlineFixture();
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

QuerySpec Q6Spec(const Catalog* catalog) {
  QuerySpec spec;
  spec.name = "Q6";
  spec.make_graph =
      [catalog](DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
    ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                             plan::BuildQ6(*catalog, {}, device));
    return std::move(bundle.graph);
  };
  return spec;
}

/// Runs Q6 once on device 0 of `manager` and returns the revenue (or the
/// run's error). A fresh bundle per run: graphs are single-use.
Result<int64_t> RunQ6Once(DeviceManager* manager,
                          const ExecutionOptions& options) {
  const auto& fixture = DeadlineFixture::Get();
  ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                           plan::BuildQ6(*fixture.catalog, {}, 0));
  QueryExecutor executor(manager);
  ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                           executor.Run(bundle.graph.get(), options));
  return plan::ExtractQ6(bundle, exec);
}

constexpr ExecutionModelKind kAllModels[] = {
    ExecutionModelKind::kOperatorAtATime,
    ExecutionModelKind::kChunked,
    ExecutionModelKind::kPipelined,
    ExecutionModelKind::kFourPhaseChunked,
    ExecutionModelKind::kFourPhasePipelined,
    ExecutionModelKind::kDeviceParallel,
};

// --- CancelToken semantics ---------------------------------------------------

TEST(CancelTokenTest, FirstCauseWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());

  token.Cancel(CancelCause::kUser, "client hung up");
  token.Cancel(CancelCause::kWatchdog, "too slow", 3);  // loses the race
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause(), CancelCause::kUser);

  Status st = token.Check();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_FALSE(st.IsTransient());
  EXPECT_NE(st.ToString().find("client hung up"), std::string::npos);
  // The losing watchdog's device tag must not leak in.
  EXPECT_EQ(st.device_id(), -1);
}

TEST(CancelTokenTest, LapsedDeadlineTripsLazilyOnCheck) {
  CancelToken token;
  token.SetDeadlineAfterMs(-1.0);  // already lapsed
  EXPECT_TRUE(token.has_deadline());
  EXPECT_LT(token.RemainingMs(), 0.0);
  // cancelled() is the cheap relaxed view: the lapse is unobserved so far.
  EXPECT_FALSE(token.cancelled());

  Status st = token.Check();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_FALSE(st.IsTransient());
  // The lazy trip is sticky: later observers agree.
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.cause(), CancelCause::kDeadline);
}

TEST(CancelTokenTest, UnlapsedDeadlineStaysOk) {
  CancelToken token;
  token.SetDeadlineAfterMs(60000.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_GT(token.RemainingMs(), 0.0);
  EXPECT_LE(token.RemainingMs(), 60000.0);
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, WatchdogCancelTagsTheBlamedDevice) {
  CancelToken token;
  token.Cancel(CancelCause::kWatchdog, "hung on gpu", 2);
  Status st = token.Check();
  EXPECT_TRUE(st.IsCancelled());
  // The tag is what routes the cancellation into DeviceHealth.
  EXPECT_EQ(st.device_id(), 2);
  EXPECT_EQ(token.cause(), CancelCause::kWatchdog);
}

TEST(CancelTokenTest, CauseNames) {
  EXPECT_STREQ(CancelCauseToString(CancelCause::kUser), "user");
  EXPECT_STREQ(CancelCauseToString(CancelCause::kDeadline), "deadline");
  EXPECT_STREQ(CancelCauseToString(CancelCause::kWatchdog), "watchdog");
}

// --- Executor: cancellation unwinds every model ------------------------------

TEST(ExecutorCancelTest, PreCancelledTokenUnwindsEveryModel) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  MemoryLedger ledger(&manager, 0);

  // Fault-free reference revenue.
  auto baseline = RunQ6Once(&manager, {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (ExecutionModelKind model : kAllModels) {
    SCOPED_TRACE(ExecutionModelName(model));
    CancelToken token;
    token.Cancel(CancelCause::kUser, "cancelled before dispatch");

    ExecutionOptions options;
    options.model = model;
    options.cancel_token = &token;
    options.memory_listener = &ledger;
    QueryStats sink;
    options.collect_operator_stats = true;
    options.stats_sink = &sink;
    auto cancelled = RunQ6Once(&manager, options);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_TRUE(cancelled.status().IsCancelled())
        << cancelled.status().ToString();
    // The unwind returned every charged byte.
    EXPECT_EQ(ledger.budget(0).live_bytes(), 0u);
    // The sink holds one operator entry per node, none launched.
    auto q6 = plan::BuildQ6(*DeadlineFixture::Get().catalog, {}, 0);
    ASSERT_TRUE(q6.ok());
    ASSERT_EQ(sink.profile.operators.size(), q6->graph->nodes().size());
    for (const obs::OperatorStats& op : sink.profile.operators) {
      EXPECT_EQ(op.launches, 0u) << op.label;
    }

    // The device is perfectly reusable: a clean run is bit-identical.
    ExecutionOptions clean;
    clean.model = model;
    auto rerun = RunQ6Once(&manager, clean);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(*rerun, *baseline);
  }
}

TEST(ExecutorCancelTest, LapsedDeadlineFailsRunAndDrainsLedger) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  MemoryLedger ledger(&manager, 0);

  CancelToken token;
  token.SetDeadlineAfterMs(0.0);  // lapses before the first check
  ExecutionOptions options;
  options.cancel_token = &token;
  options.memory_listener = &ledger;
  auto result = RunQ6Once(&manager, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(ledger.budget(0).live_bytes(), 0u);
}

// The seeded cancellation soak (ISSUE satellite): fire a user cancel at a
// randomized point of the run, across every execution model, and assert the
// two invariants that make cancellation safe — the ledger drains to zero no
// matter where the token tripped, and a surviving (or subsequent) run is
// bit-identical to the fault-free baseline.
TEST(ExecutorCancelTest, SeededCancellationPointSoak) {
  DeviceManager manager;
  // A small wall-clock stall on every Execute stretches each run to ~10 ms
  // of real time, so the randomized cancels land *inside* runs rather than
  // after them. The stall succeeds: surviving runs stay bit-identical.
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 2.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  MemoryLedger ledger(&manager, 0);

  auto baseline = RunQ6Once(&manager, {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::mt19937 rng(17);
  std::uniform_int_distribution<int> delay_us(0, 12000);
  size_t cancelled_runs = 0;
  for (ExecutionModelKind model : kAllModels) {
    SCOPED_TRACE(ExecutionModelName(model));
    for (int iter = 0; iter < 4; ++iter) {
      CancelToken token;
      std::thread canceller([&token, delay = delay_us(rng)] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
        token.Cancel(CancelCause::kUser, "soak cancel");
      });

      ExecutionOptions options;
      options.model = model;
      // Small chunks: many chunk boundaries = many cancellation points.
      options.chunk_elems = 2048;
      options.cancel_token = &token;
      options.memory_listener = &ledger;
      auto result = RunQ6Once(&manager, options);
      canceller.join();

      if (result.ok()) {
        // The cancel arrived too late: the run must be untouched.
        EXPECT_EQ(*result, *baseline) << "iter " << iter;
      } else {
        EXPECT_TRUE(result.status().IsCancelled())
            << result.status().ToString();
        ++cancelled_runs;
      }
      // Either way: no leaked charge survives onto the next run.
      ASSERT_EQ(ledger.budget(0).live_bytes(), 0u)
          << ExecutionModelName(model) << " iter " << iter;
    }

    // The model still produces the exact baseline after the soak.
    ExecutionOptions clean;
    clean.model = model;
    clean.chunk_elems = 2048;
    clean.memory_listener = &ledger;
    auto rerun = RunQ6Once(&manager, clean);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(*rerun, *baseline);
    EXPECT_EQ(ledger.budget(0).live_bytes(), 0u);
  }
  // The soak is meaningless if nothing was ever interrupted.
  EXPECT_GT(cancelled_runs, 0u);
}

// EXPLAIN ANALYZE under cancellation (ISSUE satellite): with operator-stats
// collection on and a stats sink attached, a deadline that trips mid-run
// must still leave a *finalized, internally consistent* OperatorStats tree
// in the sink — no double counting from partial chunks, no rows invented by
// the unwind — across every execution model.
TEST(ExecutorCancelTest, SeededDeadlineLeavesConsistentOperatorStats) {
  DeviceManager manager;
  // Stall each Execute so the randomized deadlines lapse *inside* runs.
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 2.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());
  MemoryLedger ledger(&manager, 0);

  std::mt19937 rng(23);
  std::uniform_real_distribution<double> deadline_ms(0.5, 12.0);
  size_t cancelled_runs = 0;
  for (ExecutionModelKind model : kAllModels) {
    SCOPED_TRACE(ExecutionModelName(model));
    for (int iter = 0; iter < 4; ++iter) {
      CancelToken token;
      token.SetDeadlineAfterMs(deadline_ms(rng));
      QueryStats sink;
      ExecutionOptions options;
      options.model = model;
      options.chunk_elems = 2048;
      options.cancel_token = &token;
      options.memory_listener = &ledger;
      options.collect_operator_stats = true;
      options.stats_sink = &sink;
      auto result = RunQ6Once(&manager, options);
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsDeadlineExceeded() ||
                    result.status().IsCancelled())
            << result.status().ToString();
        ++cancelled_runs;
      }
      ASSERT_EQ(ledger.budget(0).live_bytes(), 0u);

      // Finalized on every exit path: one entry per graph node, in node-id
      // order, each internally consistent however far the run got.
      const std::vector<obs::OperatorStats>& ops = sink.profile.operators;
      ASSERT_FALSE(ops.empty()) << "stats sink not finalized";
      uint64_t total_rows_in = 0;
      for (size_t i = 0; i < ops.size(); ++i) {
        const obs::OperatorStats& op = ops[i];
        SCOPED_TRACE(op.label);
        if (i > 0) {
          EXPECT_GT(op.node_id, ops[i - 1].node_id);
        }
        if (op.selective) {
          EXPECT_LE(op.rows_out, op.rows_in);
        }
        // Variant attribution never exceeds the measured wall total.
        EXPECT_LE(op.scalar_ms + op.parallel_ms + op.fused_ms,
                  op.kernel_ms + 1e-6);
        // Device slices sum exactly to the operator totals (merge performs
        // no double counting, partial chunks included).
        uint64_t slice_in = 0, slice_out = 0;
        size_t slice_launches = 0;
        for (const obs::OperatorDeviceSlice& slice : op.devices) {
          slice_in += slice.rows_in;
          slice_out += slice.rows_out;
          slice_launches += slice.launches;
        }
        EXPECT_EQ(slice_in, op.rows_in);
        EXPECT_EQ(slice_out, op.rows_out);
        EXPECT_EQ(slice_launches, op.launches);
        total_rows_in += op.rows_in;
      }
      if (result.ok()) {
        EXPECT_GT(total_rows_in, 0u);
      }
    }
  }
  // The soak is meaningless if no deadline ever landed mid-run.
  EXPECT_GT(cancelled_runs, 0u);
}

// --- WorkerPool: the tile-claim loop honors the token ------------------------

TEST(WorkerPoolCancelTest, PreCancelledTokenClaimsNoTiles) {
  CancelToken token;
  token.Cancel(CancelCause::kUser, "cancelled before the region");
  std::atomic<size_t> ran{0};
  Status st = task::WorkerPool::Global().ParallelTiles(
      32, 4, "cancel_test",
      [&ran](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      &token);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(ran.load(), 0u);
}

TEST(WorkerPoolCancelTest, MidRegionCancelStopsFurtherClaims) {
  CancelToken token;
  std::atomic<size_t> ran{0};
  Status st = task::WorkerPool::Global().ParallelTiles(
      64, 4, "cancel_test",
      [&ran, &token](size_t) {
        if (ran.fetch_add(1, std::memory_order_relaxed) + 1 == 8) {
          token.Cancel(CancelCause::kUser, "enough");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return Status::OK();
      },
      &token);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Claims stop once tripped; only tiles already in flight finish.
  EXPECT_GE(ran.load(), 8u);
  EXPECT_LT(ran.load(), 64u);
}

TEST(WorkerPoolCancelTest, TileErrorBeatsCancelDeterministically) {
  CancelToken token;
  Status st = task::WorkerPool::Global().ParallelTiles(
      16, 2, "cancel_test",
      [&token](size_t tile) -> Status {
        if (tile == 0) {
          token.Cancel(CancelCause::kUser, "racing cancel");
          return Status::ExecutionError("tile 0 failed first");
        }
        return Status::OK();
      },
      &token);
  // The lowest failing tile's error wins over the (sentinel-index) cancel.
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(st.IsCancelled()) << st.ToString();
  EXPECT_NE(st.ToString().find("tile 0 failed first"), std::string::npos);
}

// --- Transfer hub: tokens stop transfers before bytes move -------------------

TEST(TransferHubCancelTest, CancelledTokenStopsLoads) {
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0");
  ASSERT_TRUE(device.ok());

  auto column = std::make_shared<Column>("c", ElementType::kInt32);
  column->Resize(32);
  for (int i = 0; i < 32; ++i) column->mutable_data<int32_t>()[i] = i;

  DataTransferHub hub(&manager, DataContainer::WithDefaultTransforms());
  CancelToken token;
  hub.set_cancel_token(&token);

  // Armed but untripped: loads pass.
  auto ok_load = hub.LoadColumnChunk(0, column, 0, 32, sizeof(int32_t));
  ASSERT_TRUE(ok_load.ok()) << ok_load.status().ToString();

  token.Cancel(CancelCause::kUser, "stop the transfer");
  auto cancelled = hub.LoadColumnChunk(0, column, 0, 32, sizeof(int32_t));
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();
}

// --- Profile: cancelled runs are marked --------------------------------------

TEST(ProfileCancelTest, CancelMarksSerializeToJson) {
  obs::QueryProfile profile;
  profile.collected = true;
  profile.cancelled_cause = "deadline";
  obs::PipelineProfile pipeline;
  pipeline.index = 0;
  pipeline.cancelled = true;
  profile.pipelines.push_back(pipeline);

  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"cancelled\":\"deadline\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cancelled\":true"), std::string::npos) << json;
}

// --- Service: admission shedding ---------------------------------------------

TEST(ServiceDeadlineTest, AdmissionShedsUnmeetableDeadline) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  std::string json;
  {
    ServiceConfig config;
    config.workers = 1;
    QueryService service(&manager, config);

    QuerySpec spec = Q6Spec(fixture.catalog.get());
    // Far below the prediction floor (min_predicted_ms = 5): unmeetable.
    spec.deadline_ms = 0.01;
    auto ticket = service.Submit(std::move(spec));
    ASSERT_FALSE(ticket.ok());
    EXPECT_TRUE(ticket.status().IsDeadlineExceeded())
        << ticket.status().ToString();
    // Shedding is deliberate back-pressure, not a transient hiccup.
    EXPECT_FALSE(ticket.status().IsTransient());

    ServiceStats stats = service.GetStats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.admitted, 0u);
    json = recorder.ExportChromeJson();
  }
  recorder.Disable();
  EXPECT_NE(json.find("\"name\":\"shed\""), std::string::npos);
}

TEST(ServiceDeadlineTest, GenerousDeadlineAdmitsAndRecordsSlack) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  auto device = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);

  QuerySpec spec = Q6Spec(fixture.catalog.get());
  spec.deadline_ms = 60000.0;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE((*ticket)->Wait().ok());
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  // The met deadline left its margin in the slack histogram.
  const std::string text = service.metrics().ToPrometheusText();
  EXPECT_NE(text.find("adamant_service_deadline_slack_ms"), std::string::npos);
}

// --- Service: queue eviction of lapsed deadlines -----------------------------

TEST(ServiceDeadlineTest, LapsedQueuedQueryIsEvicted) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  // Every Execute stalls 60 ms (wall clock) but succeeds: the single worker
  // is pinned long enough for the queued query's deadline to lapse.
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 60.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  std::string json;
  {
    ServiceConfig config;
    config.workers = 1;
    QueryService service(&manager, config);

    auto slow = service.Submit(Q6Spec(fixture.catalog.get()));
    ASSERT_TRUE(slow.ok());

    QuerySpec doomed = Q6Spec(fixture.catalog.get());
    doomed.deadline_ms = 20.0;  // lapses while queued behind the stalled run
    auto evicted = service.Submit(std::move(doomed));
    ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();

    const Result<QueryExecution>& evicted_result = (*evicted)->Wait();
    ASSERT_FALSE(evicted_result.ok());
    EXPECT_TRUE(evicted_result.status().IsDeadlineExceeded())
        << evicted_result.status().ToString();
    // It never dispatched: eviction happened in the queue.
    EXPECT_EQ((*evicted)->placed_device(), -1);

    EXPECT_TRUE((*slow)->Wait().ok());
    service.Drain();

    ServiceStats stats = service.GetStats();
    EXPECT_EQ(stats.deadline_evictions, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
    json = recorder.ExportChromeJson();
  }
  recorder.Disable();
  EXPECT_NE(json.find("\"name\":\"shed:evict\""), std::string::npos);
}

// --- Service: a deadline lapsing mid-run cancels the run ---------------------

TEST(ServiceDeadlineTest, MidRunDeadlineCancelsWithoutRetry) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 200.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  config.retry.max_attempts = 5;
  QueryService service(&manager, config);

  QuerySpec spec = Q6Spec(fixture.catalog.get());
  spec.deadline_ms = 30.0;  // admitted (predicted ~5 ms), lapses in the stall
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // A missed deadline is final: retrying cannot un-miss it.
  EXPECT_EQ((*ticket)->attempts(), 1u);
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
}

// --- Service: a pre-cancelled client token is final --------------------------

TEST(ServiceDeadlineTest, ClientCancelMidRunIsFinalNoRetry) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 200.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  config.retry.max_attempts = 5;
  QueryService service(&manager, config);

  CancelToken token;
  QuerySpec spec = Q6Spec(fixture.catalog.get());
  spec.options.cancel_token = &token;
  auto ticket = service.Submit(std::move(spec));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  // The idle worker dispatches immediately and hangs in the 200 ms stall;
  // the client hangs up 50 ms in.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel(CancelCause::kUser, "client went away");

  const Result<QueryExecution>& result = (*ticket)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // A user cancel is final: no retry may resurrect the query.
  EXPECT_EQ((*ticket)->attempts(), 1u);
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
}

// A client token that trips while the query is still queued evicts it
// without a dispatch: zero attempts, and the ticket fails with the token's
// own cancel status.
TEST(ServiceDeadlineTest, ClientCancelWhileQueuedEvicts) {
  const auto& fixture = DeadlineFixture::Get();
  DeviceManager manager;
  auto device =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 60.0));
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*device)).ok());

  ServiceConfig config;
  config.workers = 1;
  QueryService service(&manager, config);

  // Pin the single worker behind a stalled run...
  auto slow = service.Submit(Q6Spec(fixture.catalog.get()));
  ASSERT_TRUE(slow.ok());

  // ...then queue a query whose client token is already dead.
  CancelToken token;
  token.Cancel(CancelCause::kUser, "cancelled while queued");
  QuerySpec spec = Q6Spec(fixture.catalog.get());
  spec.options.cancel_token = &token;
  auto queued = service.Submit(std::move(spec));
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();

  const Result<QueryExecution>& result = (*queued)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ((*queued)->attempts(), 0u);       // never dispatched
  EXPECT_EQ((*queued)->placed_device(), -1);

  EXPECT_TRUE((*slow)->Wait().ok());
  service.Drain();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.deadline_evictions, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
}

// --- The headline acceptance test: watchdog vs a stalled device --------------

// A sticky wall-clock stall on gpu.0's Execute makes every run there hang far
// past its predicted cost. The watchdog must cancel the run, blame the device
// (quarantine, exactly like a crasher), and the retry on the healthy sibling
// must produce the bit-identical result.
TEST(ServiceDeadlineTest, WatchdogCancelsStalledDeviceRetryMatchesBaseline) {
  const auto& fixture = DeadlineFixture::Get();

  // Fault-free reference revenue on a clean manager.
  DeviceManager clean;
  auto clean_dev = clean.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(clean_dev.ok());
  ASSERT_TRUE(BindStandardKernels(clean.device(*clean_dev)).ok());
  auto q6_bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(q6_bundle.ok());
  QueryExecutor executor(&clean);
  auto clean_exec = executor.Run(q6_bundle->graph.get(), {});
  ASSERT_TRUE(clean_exec.ok());
  auto baseline = plan::ExtractQ6(*q6_bundle, *clean_exec);
  ASSERT_TRUE(baseline.ok());

  DeviceManager manager;
  // gpu.0 stalls 250 ms on every Execute, forever; gpu.1 is healthy.
  auto stalled =
      manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.0",
                        FaultPlan::StickyStall(InterfaceCall::kExecute, 250.0));
  auto healthy = manager.AddDriver(sim::DriverKind::kCudaGpu, "gpu.1");
  ASSERT_TRUE(stalled.ok() && healthy.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*stalled)).ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*healthy)).ok());

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  std::string json;
  {
    ServiceConfig config;
    config.workers = 1;
    config.retry.max_attempts = 5;
    // Budget = max(3 x predicted, 50 ms) << the 250 ms stall.
    config.slo.watchdog_factor = 3.0;
    config.health.quarantine_threshold = 1;
    config.health.probe_cooldown_ms = 60000.0;  // no probe during the test
    QueryService service(&manager, config);

    QuerySpec spec = Q6Spec(fixture.catalog.get());
    spec.deadline_ms = 60000.0;  // generous: the watchdog, not the deadline
    auto ticket = service.Submit(std::move(spec));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

    const Result<QueryExecution>& result = (*ticket)->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Attempt 1 hung on gpu.0 and was cancelled; attempt 2 ran on gpu.1.
    EXPECT_EQ((*ticket)->attempts(), 2u);
    EXPECT_EQ((*ticket)->placed_device(), *healthy);
    auto revenue = plan::ExtractQ6(*q6_bundle, *result);
    ASSERT_TRUE(revenue.ok());
    EXPECT_EQ(*revenue, *baseline);
    service.Drain();

    ServiceStats stats = service.GetStats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.watchdog_fires, 1u);
    EXPECT_GE(stats.cancelled, 1u);
    EXPECT_GE(stats.retries, 1u);
    // The chronic straggler took the same health hit as a crasher.
    EXPECT_GE(stats.quarantines, 1u);
    EXPECT_TRUE(stats.devices[0].quarantined);
    EXPECT_FALSE(stats.devices[1].quarantined);
    // Both unwinds were clean.
    EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u);
    EXPECT_EQ(service.ledger().budget(1).live_bytes(), 0u);
    json = recorder.ExportChromeJson();
  }
  recorder.Disable();

  EXPECT_NE(json.find("\"name\":\"watchdog_fire\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cancel\""), std::string::npos);
  obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.Summary();
}

// --- Service: seeded cancellation soak stays deterministic -------------------

// Mix deadlined and undeadlined queries under a single worker with a seeded
// submission order; some miss their deadline mid-run (stall), the rest
// complete. Every completion must be bit-identical to the baseline and both
// runs of the same seed must agree on every counter.
TEST(ServiceDeadlineTest, SeededDeadlineSoakIsDeterministic) {
  const auto& fixture = DeadlineFixture::Get();

  DeviceManager clean;
  auto clean_dev = clean.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(clean_dev.ok());
  ASSERT_TRUE(BindStandardKernels(clean.device(*clean_dev)).ok());
  auto q6_bundle = plan::BuildQ6(*fixture.catalog, {}, 0);
  ASSERT_TRUE(q6_bundle.ok());
  QueryExecutor executor(&clean);
  auto clean_exec = executor.Run(q6_bundle->graph.get(), {});
  ASSERT_TRUE(clean_exec.ok());
  auto baseline = plan::ExtractQ6(*q6_bundle, *clean_exec);
  ASSERT_TRUE(baseline.ok());

  auto run_once = [&]() {
    DeviceManager manager;
    // Every Execute stalls 30 ms: queries with the 25 ms deadline always
    // miss it (mid-run before calibration, shed at admission after), while
    // undeadlined queries complete — slowly, but bit-identically.
    auto device = manager.AddDriver(
        sim::DriverKind::kCudaGpu, "gpu.0",
        FaultPlan::StickyStall(InterfaceCall::kExecute, 30.0));
    ADAMANT_CHECK(device.ok());
    ADAMANT_CHECK(BindStandardKernels(manager.device(*device)).ok());

    ServiceConfig config;
    config.workers = 1;  // one worker + sequential waits = one call order
    QueryService service(&manager, config);

    std::mt19937 rng(23);
    std::uniform_int_distribution<int> coin(0, 1);
    size_t matched = 0;
    size_t missed = 0;
    for (int i = 0; i < 12; ++i) {
      QuerySpec spec = Q6Spec(fixture.catalog.get());
      if (coin(rng) == 1) spec.deadline_ms = 25.0;
      auto ticket = service.Submit(std::move(spec));
      if (!ticket.ok()) {
        // Shed at admission: once calibration has seen a (stalled) run, the
        // predicted cost alone exceeds the deadline.
        EXPECT_TRUE(ticket.status().IsDeadlineExceeded())
            << ticket.status().ToString();
        ++missed;
        continue;
      }
      const Result<QueryExecution>& result = (*ticket)->Wait();
      if (result.ok()) {
        auto revenue = plan::ExtractQ6(*q6_bundle, *result);
        ADAMANT_CHECK(revenue.ok());
        EXPECT_EQ(*revenue, *baseline) << "query " << i;
        ++matched;
      } else {
        EXPECT_TRUE(result.status().IsDeadlineExceeded())
            << result.status().ToString();
        ++missed;
      }
      EXPECT_EQ(service.ledger().budget(0).live_bytes(), 0u) << "query " << i;
    }
    service.Drain();
    ServiceStats stats = service.GetStats();
    EXPECT_EQ(stats.completed, matched);
    EXPECT_EQ(stats.failed + stats.shed, missed);
    return stats;
  };

  const ServiceStats a = run_once();
  const ServiceStats b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.cancelled, b.cancelled);
  // The soak must exercise both outcomes to mean anything.
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.cancelled + a.shed, 0u);
}

}  // namespace
}  // namespace adamant
