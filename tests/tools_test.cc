// Tests for the tooling around the executor: the simulated timelines in
// the chrome trace, the chunk-size tuner, and failure injection through a
// flaky device (error propagation and resource cleanup).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numeric>

#include "adamant/adamant.h"
#include "runtime/chunk_tuner.h"
#include "common/bit_util.h"
#include "obs/trace_check.h"

namespace adamant {
namespace {

// --- Simulated timelines in the trace ---

/// A timestamp field as the trace serializer prints it.
std::string TsField(double us) {
  char buf[48];
  if (us == std::floor(us)) {
    std::snprintf(buf, sizeof(buf), "\"ts\":%lld,",
                  static_cast<long long>(us));
  } else {
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,", us);
  }
  return buf;
}

/// Exports the recorder and validates the result.
std::string ExportValidated() {
  const std::string json = obs::TraceRecorder::Global().ExportChromeJson();
  const obs::TraceCheckResult check = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.Summary();
  return json;
}

TEST(TraceExport, EngineBookingsExportAsTheSimulatedProcess) {
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  SimulatedDevice* dev = manager.device(*gpu);
  dev->SetTimelineTracing(true);
  std::vector<int32_t> values(1024, 7);
  auto in = dev->PrepareMemory(values.size() * 4);
  auto out = dev->PrepareMemory(values.size() * 4);
  ASSERT_TRUE(in.ok() && out.ok());
  ASSERT_TRUE(dev->PlaceData(*in, values.data(), values.size() * 4, 0).ok());
  ASSERT_TRUE(dev->Execute(kernels::MakeMap(*in, kInvalidBuffer, *out,
                                            MapOp::kAddScalar,
                                            ElementType::kInt32,
                                            ElementType::kInt32, 1,
                                            values.size()))
                  .ok());
  const double barrier = std::ceil(dev->MaxCompletion()) + 100;
  dev->Barrier(barrier);

  obs::TraceRecorder::Global().Enable();
  dev->RecordTimelineTrace(obs::SimEngineTrack(0), 40);
  obs::TraceRecorder::Global().Disable();
  const std::string json = ExportValidated();
  EXPECT_NE(json.find("\"name\":\"simulated clock (us)\""), std::string::npos);
  EXPECT_NE(json.find("cuda_gpu h2d (simulated)"), std::string::npos);
  EXPECT_NE(json.find("cuda_gpu compute (simulated)"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":" +
                      std::to_string(obs::SimEngineTrack(0)) + ",\"ts\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"map\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dp-barrier\""), std::string::npos);
  // Every booking is shifted by the offset.
  EXPECT_NE(json.find(TsField(barrier + 40) +
                      "\"dur\":0,\"name\":\"dp-barrier\""),
            std::string::npos);
}

TEST(TraceExport, EscapesQuotesInDeviceAndEventNames) {
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu, "t\"x");
  ASSERT_TRUE(gpu.ok());
  SimulatedDevice* dev = manager.device(*gpu);
  dev->SetTimelineTracing(true);
  dev->Barrier(1);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  dev->RecordTimelineTrace(obs::SimEngineTrack(0), 0);
  recorder.RecordComplete(obs::SimEngineTrack(0), 0, 1, "label\"quoted");
  recorder.Disable();
  const std::string json = ExportValidated();
  EXPECT_NE(json.find("t\\\"x d2h (simulated)"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"label\\\"quoted\""), std::string::npos)
      << json;
}

TEST(TraceExport, EachTraceNamesOnlyItsOwnTracks) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  recorder.SetTrackName(obs::SimEngineTrack(0), "earlier trace");
  recorder.RecordComplete(obs::SimEngineTrack(0), 0, 5, "k");
  recorder.Disable();
  recorder.Enable();
  recorder.RecordComplete(0, 0, 5, "k");
  recorder.Disable();
  const std::string json = ExportValidated();
  EXPECT_EQ(json.find("earlier trace"), std::string::npos) << json;
  EXPECT_EQ(json.find("simulated clock"), std::string::npos) << json;
}

TEST(TraceExport, TracedQueriesGetOneSimulatedWindowEach) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  auto bundle = plan::BuildQ6(**catalog, {}, *gpu);
  ASSERT_TRUE(bundle.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhasePipelined;
  options.chunk_elems = 512;
  QueryExecutor executor(&manager);
  obs::TraceRecorder::Global().Enable();
  auto first = executor.Run(bundle->graph.get(), options);
  auto second = executor.Run(bundle->graph.get(), options);
  obs::TraceRecorder::Global().Disable();
  ASSERT_TRUE(first.ok() && second.ok());

  const std::string json = ExportValidated();
  EXPECT_NE(json.find("\"name\":\"filter_bitmap\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"agg_block\""), std::string::npos);
  // Two runs, two windows: the second starts where the first ends.
  EXPECT_NE(json.find("\"name\":\"run:0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"run:1\""), std::string::npos);
  EXPECT_NE(json.find(TsField(first->stats.elapsed_us) + "\"dur\":" ),
            std::string::npos);
  // An untraced run records nothing simulated.
  obs::TraceRecorder::Global().Clear();
  ASSERT_TRUE(executor.Run(bundle->graph.get(), options).ok());
  EXPECT_EQ(obs::TraceRecorder::Global().TotalEvents(), 0u);
}

// --- Chunk tuner ---

TEST(ChunkTuner, ScalesInverselyWithRowWidth) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  // Q6 reads 4 lineitem columns; Q3's widest pipeline also reads several —
  // both should land in a sane power-of-two range.
  auto q6 = plan::BuildQ6(**catalog, {}, *gpu);
  ASSERT_TRUE(q6.ok());
  auto chunk6 = SuggestChunkElems(*manager.device(*gpu), *q6->graph);
  ASSERT_TRUE(chunk6.ok());
  EXPECT_TRUE(bit_util::IsPowerOfTwo(*chunk6));
  EXPECT_GE(*chunk6, size_t{1} << 16);
  EXPECT_LE(*chunk6, size_t{1} << 26);
  // The paper's 2^25 on an 11 GiB GPU is within 2x of the suggestion.
  EXPECT_GE(*chunk6, size_t{1} << 24);
}

TEST(ChunkTuner, SmallerDeviceSmallerChunks) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  auto ctx = std::make_shared<SimContext>();
  auto model = sim::MakePerfModel(sim::DriverKind::kCudaGpu,
                                  sim::HardwareSetup::kSetup1);
  model.device_memory_bytes = size_t{512} << 20;  // tiny embedded GPU
  SimulatedDevice small("small_gpu", model, SdkFormat::kCudaDevPtr, false,
                        ctx);
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  auto q6 = plan::BuildQ6(**catalog, {}, *gpu);
  ASSERT_TRUE(q6.ok());
  auto big_chunk = SuggestChunkElems(*manager.device(*gpu), *q6->graph);
  auto small_chunk = SuggestChunkElems(small, *q6->graph);
  ASSERT_TRUE(big_chunk.ok() && small_chunk.ok());
  EXPECT_LT(*small_chunk, *big_chunk);
}

TEST(ChunkTuner, SuggestedChunkRunsCorrectly) {
  auto catalog = tpch::Generate(
      {.scale_factor = 0.002, .include_dimension_tables = false});
  ASSERT_TRUE(catalog.ok());
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(BindStandardKernels(manager.device(*gpu)).ok());
  auto bundle = plan::BuildQ6(**catalog, {}, *gpu);
  ASSERT_TRUE(bundle.ok());
  auto chunk = SuggestChunkElems(*manager.device(*gpu), *bundle->graph);
  ASSERT_TRUE(chunk.ok());
  ExecutionOptions options;
  options.model = ExecutionModelKind::kFourPhaseChunked;
  options.chunk_elems = *chunk;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(*plan::ExtractQ6(*bundle, *exec),
            *tpch::Q6Reference(**catalog, {}));
}

// --- Failure injection ---

/// A device whose nth interface call of a chosen kind fails — models
/// transient driver/transfer errors.
class FlakyDevice : public SimulatedDevice {
 public:
  enum class FailPoint { kNone, kPlaceData, kExecute, kPrepareMemory };

  FlakyDevice(std::shared_ptr<SimContext> ctx)
      : SimulatedDevice("flaky",
                        sim::MakePerfModel(sim::DriverKind::kCudaGpu,
                                           sim::HardwareSetup::kSetup1),
                        SdkFormat::kCudaDevPtr, false, std::move(ctx)) {}

  void FailOn(FailPoint point, int countdown) {
    fail_point_ = point;
    countdown_ = countdown;
  }

  Status PlaceData(BufferId dst, const void* src, size_t bytes,
                   size_t dst_offset) override {
    if (ShouldFail(FailPoint::kPlaceData)) {
      return Status::IOError("injected DMA failure");
    }
    return SimulatedDevice::PlaceData(dst, src, bytes, dst_offset);
  }

  Status Execute(const KernelLaunch& launch) override {
    if (ShouldFail(FailPoint::kExecute)) {
      return Status::ExecutionError("injected kernel launch failure");
    }
    return SimulatedDevice::Execute(launch);
  }

  Result<BufferId> PrepareMemory(size_t bytes) override {
    if (ShouldFail(FailPoint::kPrepareMemory)) {
      return Status::OutOfMemory("injected allocation failure");
    }
    return SimulatedDevice::PrepareMemory(bytes);
  }

 private:
  bool ShouldFail(FailPoint point) {
    if (fail_point_ != point) return false;
    return --countdown_ == 0;
  }

  FailPoint fail_point_ = FailPoint::kNone;
  int countdown_ = 0;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto device = std::make_unique<FlakyDevice>(manager_.sim_context());
    flaky_ = device.get();
    auto id = manager_.AddDevice(std::move(device));
    ASSERT_TRUE(id.ok());
    device_ = *id;
    ASSERT_TRUE(BindStandardKernels(flaky_).ok());
    std::vector<int32_t> values(4096);
    std::iota(values.begin(), values.end(), 0);
    col_ = Column::FromVector("v", values);
  }

  PrimitiveGraph MakePlan() {
    PrimitiveGraph graph;
    NodeConfig fcfg;
    fcfg.cmp_op = CmpOp::kLt;
    fcfg.lo = 1000;
    int f = graph.AddNode(PrimitiveKind::kFilterBitmap, device_, fcfg);
    int m = graph.AddNode(PrimitiveKind::kMaterialize, device_, {});
    NodeConfig acfg;
    acfg.agg_op = AggOp::kSum;
    int agg = graph.AddNode(PrimitiveKind::kAggBlock, device_, acfg);
    EXPECT_TRUE(graph.ConnectScan(col_, f, 0).ok());
    EXPECT_TRUE(graph.ConnectScan(col_, m, 0).ok());
    EXPECT_TRUE(graph.Connect(f, 0, m, 1).ok());
    EXPECT_TRUE(graph.Connect(m, 0, agg, 0).ok());
    agg_ = agg;
    return graph;
  }

  Result<QueryExecution> Run(PrimitiveGraph* graph) {
    ExecutionOptions options;
    options.model = ExecutionModelKind::kChunked;
    options.chunk_elems = 512;
    QueryExecutor executor(&manager_);
    return executor.Run(graph, options);
  }

  DeviceManager manager_;
  FlakyDevice* flaky_ = nullptr;
  DeviceId device_ = 0;
  ColumnPtr col_;
  int agg_ = -1;
};

TEST_F(FaultInjectionTest, TransferFailureMidQueryPropagatesAndCleansUp) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kPlaceData, 5);  // mid-run chunk
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsIOError());
  EXPECT_NE(exec.status().message().find("injected DMA failure"),
            std::string::npos);
  EXPECT_EQ(flaky_->device_arena().used(), 0u) << "no leaked device memory";
  EXPECT_EQ(flaky_->pinned_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, KernelFailureCarriesNodeContext) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kExecute, 7);
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsExecutionError());
  EXPECT_EQ(flaky_->device_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, AllocationFailureSurfacesAsOom) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kPrepareMemory, 3);
  auto exec = Run(&graph);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsOutOfMemory());
  EXPECT_EQ(flaky_->device_arena().used(), 0u);
}

TEST_F(FaultInjectionTest, RecoversOnRetryWithoutFault) {
  PrimitiveGraph graph = MakePlan();
  flaky_->FailOn(FlakyDevice::FailPoint::kExecute, 4);
  ASSERT_FALSE(Run(&graph).ok());
  // The fault was one-shot; a rerun of the same plan succeeds.
  PrimitiveGraph fresh = MakePlan();
  auto exec = Run(&fresh);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(*exec->AggValue(agg_), int64_t{999} * 1000 / 2);
}

}  // namespace
}  // namespace adamant
