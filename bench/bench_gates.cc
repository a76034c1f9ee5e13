// bench_gates — the host-clock gates. Each is a claim about real time on
// the machine that runs it, which the deterministic simulated clock (and so
// ctest) cannot check:
//
//   sql_compile   lex -> parse -> bind -> plan of every builtin grows
//                 <= 5.5x from SF 0.02 to SF 0.06, min of 25 alternating
//                 compiles each. Sampling reads every k-th row of the
//                 scanned tables, so growth is linear (3x); work quadratic
//                 in table size, such as copying the catalog through
//                 one-element appends, grows 7-9x.
//   obs_overhead  Q3/Q4/Q6 chunked on cuda_gpu at SF 0.02 charged as SF 5,
//                 min of 9 interleaved runs each:
//                   traced  <= untraced x 1.02 + 2 ms
//                   analyze <= untraced x 1.03 + 2 ms
//                 (tracing on; EXPLAIN ANALYZE operator stats on, tracing
//                 off). The 2 ms floor keeps millisecond runs from failing
//                 on scheduler jitter.
//   deadline      one worker serves Q6 on a device whose every Execute
//                 stalls 5 ms of wall time. Offering a query every half
//                 mean service time (~2x overload) must degrade the
//                 admitted p99 >= 2x the unloaded p99 with shedding off,
//                 and keep it <= 1.5x with deadline shedding on, shedding
//                 at least one query.
//
// Report-only rows, with no bound:
//
//   tiled_kernels every kernel that tiles, on openmp_cpu over 2^22 random
//                 int32 keys: the minimum of 11 alternating host-clock
//                 Executes at a budget of 1 thread (one range) and of 4
//                 threads (16,384-row tiles on the worker pool). No
//                 perfbench workload tiles, so these rows are the only
//                 host-clock view of the tiled path.
//   group_by      the minimum of 11 alternating host-clock runs of:
//                 one five-accumulator HASH_AGG launch (TPC-H Q1's SUM
//                 int32, 3x SUM int64, COUNT) against the five
//                 one-accumulator launches it replaces, on openmp_cpu over
//                 2^22 rows with 4 and with 2^16 groups; and the HASH_AGG
//                 kernel_ms of hand-built Q1 against SQL q1's, both
//                 compiled unfused on cuda_gpu at SF 0.1 (EXPLAIN ANALYZE
//                 operator stats).
//
// Every measured value, its bound and verdict go to BENCH_gates.json in the
// working directory; the exit status is 1 when any gate fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "task/hash_table.h"
#include "task/kernels_fused.h"

namespace adamant::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One checked claim: `value` against `bound` (an upper bound unless
/// `at_least`).
struct Gate {
  std::string name;
  std::string subject;
  double value = 0;
  double bound = 0;
  bool at_least = false;
  bool pass() const { return at_least ? value >= bound : value <= bound; }
};

// --- sql_compile -------------------------------------------------------------

void SqlCompileGates(std::vector<Gate>* gates) {
  constexpr double kScaleFactors[] = {0.02, 0.06};
  constexpr int kIterations = 25;
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ADAMANT_CHECK(gpu.ok()) << gpu.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager.device(*gpu)).ok());
  sql::PlannerOptions options;
  options.manager = &manager;  // cost-based join ordering

  std::vector<std::shared_ptr<Catalog>> catalogs;
  for (double sf : kScaleFactors) {
    tpch::TpchConfig config;
    config.scale_factor = sf;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
    catalogs.push_back(*catalog);
  }
  auto compile_us = [&](const std::string& sql, const Catalog& catalog) {
    const auto start = Clock::now();
    auto compiled = sql::Compile(sql, catalog, options);
    ADAMANT_CHECK(compiled.ok()) << compiled.status().ToString();
    return MsSince(start) * 1000;
  };
  for (const sql::BuiltinQuery& builtin : sql::BuiltinQueries()) {
    for (const auto& catalog : catalogs) {
      for (int i = 0; i < 3; ++i) compile_us(builtin.sql, *catalog);
    }
    // The two scale factors alternate, so a change in host load hits both.
    double best[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
    for (int i = 0; i < kIterations; ++i) {
      for (size_t c = 0; c < 2; ++c) {
        best[c] = std::min(best[c], compile_us(builtin.sql, *catalogs[c]));
      }
    }
    gates->push_back({"sql_compile growth SF 0.02 -> 0.06", builtin.name,
                      best[1] / best[0], 5.5});
  }
}

// --- obs_overhead ------------------------------------------------------------

void ObsOverheadGates(std::vector<Gate>* gates) {
  constexpr int kIterations = 9;
  for (int query : {3, 4, 6}) {
    BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu,
                                  sim::HardwareSetup::kSetup1, 5);
    auto run_ms = [&](bool analyze) {
      plan::PlanBundle bundle = BuildQuery(query, SharedCatalog(), 0);
      ExecutionOptions options;
      options.chunk_elems = size_t{1} << 22;
      options.collect_operator_stats = analyze;
      QueryExecutor executor(rig.manager.get());
      const auto start = Clock::now();
      auto exec = executor.Run(bundle.graph.get(), options);
      const double ms = MsSince(start);
      ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
      return ms;
    };
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Disable();
    run_ms(false);  // warm up caches and allocators
    run_ms(false);
    double untraced = std::numeric_limits<double>::infinity();
    double traced = untraced;
    double analyze = untraced;
    // Interleaved, so slow drift (thermal, background load) hits every
    // mode alike.
    for (int i = 0; i < kIterations; ++i) {
      untraced = std::min(untraced, run_ms(false));
      recorder.Enable();
      traced = std::min(traced, run_ms(false));
      recorder.Disable();
      analyze = std::min(analyze, run_ms(true));
    }
    std::string subject = "Q";
    subject += std::to_string(query);
    gates->push_back({"obs_overhead traced min ms", subject, traced,
                      untraced * 1.02 + 2.0});
    gates->push_back({"obs_overhead analyze min ms", subject, analyze,
                      untraced * 1.03 + 2.0});
  }
}

// --- deadline ----------------------------------------------------------------

constexpr double kStallMs = 5.0;  // per Execute call, wall clock

std::unique_ptr<DeviceManager> MakeStallRig() {
  auto manager = std::make_unique<DeviceManager>();
  auto device = manager->AddDriver(
      sim::DriverKind::kCudaGpu, "gpu.0",
      FaultPlan::StickyStall(InterfaceCall::kExecute, kStallMs));
  ADAMANT_CHECK(device.ok()) << device.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  return manager;
}

QuerySpec Q6Spec() {
  QuerySpec spec;
  spec.name = "Q6";
  spec.make_graph =
      [](DeviceId device) -> Result<std::unique_ptr<PrimitiveGraph>> {
    return std::move(BuildQuery(6, SharedCatalog(), device).graph);
  };
  return spec;
}

struct Phase {
  size_t shed = 0;  // rejected at admission
  double mean_ms = 0;
  double p99_ms = 0;
};

/// Queue wait + run of each completed ticket, summarized.
Phase Summarize(const std::vector<std::shared_ptr<QueryTicket>>& tickets,
                size_t shed) {
  std::vector<double> latencies;
  for (const auto& ticket : tickets) {
    if (ticket->Wait().ok()) {
      latencies.push_back(ticket->queue_wait_ms() + ticket->run_ms());
    }
  }
  Phase phase;
  phase.shed = shed;
  if (latencies.empty()) return phase;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0;
  for (double v : latencies) sum += v;
  phase.mean_ms = sum / static_cast<double>(latencies.size());
  const size_t p99 = static_cast<size_t>(
      0.99 * static_cast<double>(latencies.size() - 1) + 0.5);
  phase.p99_ms = latencies[std::min(p99, latencies.size() - 1)];
  return phase;
}

/// Sequential queries: the latency every loaded phase is judged against.
Phase RunUnloaded() {
  auto manager = MakeStallRig();
  ServiceConfig config;
  config.workers = 1;
  QueryService service(manager.get(), config);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 20; ++i) {
    auto ticket = service.Submit(Q6Spec());
    ADAMANT_CHECK(ticket.ok()) << ticket.status().ToString();
    ADAMANT_CHECK((*ticket)->Wait().ok());
    tickets.push_back(*ticket);
  }
  service.Drain();
  return Summarize(tickets, 0);
}

/// An open loop of 40 queries `interval_ms` apart. With `shed`, every
/// query carries `deadline_ms`, so the service sheds what cannot meet it;
/// without it the queue simply builds.
Phase RunLoaded(double interval_ms, double deadline_ms, bool shed) {
  auto manager = MakeStallRig();
  ServiceConfig config;
  config.workers = 1;
  QueryService service(manager.get(), config);
  // Calibrates the cost predictor the way a live service does: by serving.
  for (int i = 0; i < 5; ++i) {
    auto ticket = service.Submit(Q6Spec());
    ADAMANT_CHECK(ticket.ok() && (*ticket)->Wait().ok());
  }
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  size_t shed_count = 0;
  const auto start = Clock::now();
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        interval_ms * static_cast<double>(i))));
    QuerySpec spec = Q6Spec();
    spec.deadline_ms = shed ? deadline_ms : 0;
    auto ticket = service.Submit(std::move(spec));
    if (ticket.ok()) {
      tickets.push_back(*ticket);
    } else {
      ADAMANT_CHECK(ticket.status().IsDeadlineExceeded())
          << ticket.status().ToString();
      ++shed_count;
    }
  }
  Phase phase = Summarize(tickets, shed_count);
  service.Drain();
  return phase;
}

void DeadlineGates(std::vector<Gate>* gates) {
  const Phase unloaded = RunUnloaded();
  // ~2x overload. Admitted queries in the shed phase must finish within
  // 1.25x the unloaded p99, under the 1.5x gate, so the prediction slack
  // has headroom.
  const double interval_ms = unloaded.mean_ms / 2.0;
  const Phase noshed = RunLoaded(interval_ms, 0, false);
  const Phase shed = RunLoaded(interval_ms, unloaded.p99_ms * 1.25, true);
  gates->push_back({"deadline no-shed p99 / unloaded p99", "Q6",
                    noshed.p99_ms / unloaded.p99_ms, 2.0, true});
  gates->push_back({"deadline shed p99 / unloaded p99", "Q6",
                    shed.p99_ms / unloaded.p99_ms, 1.5});
  gates->push_back({"deadline queries shed", "Q6",
                    static_cast<double>(shed.shed), 1, true});
}

// --- tiled_kernels (report only) ---------------------------------------------

/// A kernel's best host-clock Execute at a budget of 1 and of 4 threads.
struct KernelRow {
  std::string kernel;
  double scalar_ms = 0;
  double tiled_ms = 0;
};

/// The timed launch of one kernel, plus launches that restore its inputs
/// before every run (a hash table to refill).
struct TimedLaunch {
  KernelLaunch launch;
  std::vector<KernelLaunch> reset = {};
};

/// Builds one kernel's launch over `keys` on `dev`; setup kernels run here.
using TimedCase = std::function<TimedLaunch(SimulatedDevice* dev,
                                            BufferId keys, size_t n)>;

BufferId Alloc(SimulatedDevice* dev, size_t bytes) {
  auto buf = dev->PrepareMemory(bytes);
  ADAMANT_CHECK(buf.ok()) << buf.status().ToString();
  return *buf;
}

BufferId Put(SimulatedDevice* dev, const void* data, size_t bytes) {
  const BufferId buf = Alloc(dev, bytes);
  ADAMANT_CHECK(dev->PlaceData(buf, data, bytes, 0).ok());
  return buf;
}

void Run(SimulatedDevice* dev, const KernelLaunch& launch) {
  const Status status = dev->Execute(launch);
  ADAMANT_CHECK(status.ok()) << launch.kernel_name << ": "
                             << status.ToString();
}

FusedStep Step(FusedStep::Op op, int64_t a, int64_t b, int32_t src0) {
  FusedStep step;
  step.op = op;
  step.a = a;
  step.b = b;
  step.src0 = src0;
  return step;
}

/// load key; filter key < 2^29; map key * 3 as int64; then `terminal`.
std::vector<FusedStep> FusedRecipe(const FusedStep& terminal) {
  FusedStep map = Step(FusedStep::Op::kMap,
                       static_cast<int64_t>(MapOp::kMulScalar), 3, 0);
  map.c = static_cast<int64_t>(ElementType::kInt64);
  return {Step(FusedStep::Op::kLoad, 0,
               static_cast<int64_t>(ElementType::kInt32), -1),
          Step(FusedStep::Op::kFilter, static_cast<int64_t>(CmpOp::kLt),
               1 << 29, 0),
          map, terminal};
}

std::vector<std::pair<const char*, TimedCase>> TimedCases() {
  auto build_table = [](SimulatedDevice* dev, BufferId keys, size_t n,
                        bool insert) {
    const size_t slots = HashTableLayout::SlotsFor(n);
    const size_t bytes = HashTableLayout::BuildTableBytes(slots);
    const BufferId table = Alloc(dev, bytes);
    const KernelLaunch fill =
        kernels::MakeFill(table, HashTableLayout::kEmptyKey, bytes / 4);
    Run(dev, fill);
    if (insert) {
      Run(dev, kernels::MakeHashBuild(keys, kInvalidBuffer, table, slots, 0,
                                      n));
    }
    return std::make_tuple(table, slots, fill);
  };
  return {
      {"map",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         return TimedLaunch{kernels::MakeMap(keys, kInvalidBuffer,
                                             Alloc(dev, n * 4),
                                             MapOp::kAddScalar,
                                             ElementType::kInt32,
                                             ElementType::kInt32, 7, n)};
       }},
      {"filter_bitmap",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         return TimedLaunch{kernels::MakeFilterBitmap(
             keys, Alloc(dev, bit_util::BytesForBits(n)), CmpOp::kLt,
             ElementType::kInt32, 1 << 29, 0, false, n)};
       }},
      {"filter_position",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         return TimedLaunch{kernels::MakeFilterPosition(
             keys, Alloc(dev, n * 4), Alloc(dev, 8), CmpOp::kLt,
             ElementType::kInt32, 1 << 29, 0, n)};
       }},
      {"materialize",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         const BufferId bitmap = Alloc(dev, bit_util::BytesForBits(n));
         Run(dev, kernels::MakeFilterBitmap(keys, bitmap, CmpOp::kLt,
                                            ElementType::kInt32, 1 << 29, 0,
                                            false, n));
         return TimedLaunch{kernels::MakeMaterialize(
             keys, bitmap, Alloc(dev, n * 4), Alloc(dev, 8),
             ElementType::kInt32, n)};
       }},
      {"materialize_position",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         std::vector<int32_t> positions(n);
         for (size_t i = 0; i < n; ++i) {
           positions[i] = static_cast<int32_t>(n - 1 - i);
         }
         return TimedLaunch{kernels::MakeMaterializePosition(
             keys, Put(dev, positions.data(), n * 4), Alloc(dev, n * 4),
             ElementType::kInt32, n)};
       }},
      {"prefix_sum",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         return TimedLaunch{
             kernels::MakePrefixSum(keys, Alloc(dev, n * 4), true, n)};
       }},
      {"agg_block",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         return TimedLaunch{kernels::MakeAggBlock(
             keys, Alloc(dev, 8), AggOp::kSum, ElementType::kInt32, true, n)};
       }},
      {"hash_build",
       [build_table](SimulatedDevice* dev, BufferId keys, size_t n) {
         const auto [table, slots, fill] = build_table(dev, keys, n, false);
         return TimedLaunch{kernels::MakeHashBuild(keys, kInvalidBuffer, table,
                                                   slots, 0, n),
                            {fill}};
       }},
      {"hash_probe",
       [build_table](SimulatedDevice* dev, BufferId keys, size_t n) {
         const auto [table, slots, fill] = build_table(dev, keys, n, true);
         return TimedLaunch{kernels::MakeHashProbe(
             keys, table, Alloc(dev, n * 4), Alloc(dev, n * 4), Alloc(dev, 8),
             slots, ProbeMode::kSemi, 0, n)};
       }},
      {"fused",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         const FusedStep emit = Step(
             FusedStep::Op::kEmit, static_cast<int64_t>(ElementType::kInt64),
             0, 2);
         return TimedLaunch{kernels::MakeFused({keys}, Alloc(dev, n * 8),
                                               Alloc(dev, 8),
                                               FusedRecipe(emit), false, n)};
       }},
      {"fused_agg",
       [](SimulatedDevice* dev, BufferId keys, size_t n) {
         const FusedStep agg = Step(
             FusedStep::Op::kAgg, static_cast<int64_t>(AggOp::kSum), 0, 2);
         return TimedLaunch{kernels::MakeFused({keys}, Alloc(dev, 8),
                                               kInvalidBuffer,
                                               FusedRecipe(agg), true, n)};
       }},
  };
}

std::vector<KernelRow> TiledKernelRows() {
  constexpr size_t kElems = size_t{1} << 22;
  constexpr int kRuns = 11;
  std::vector<int32_t> keys(kElems);
  Rng rng(20260805);
  for (int32_t& key : keys) {
    key = static_cast<int32_t>(rng.Uniform(1, int64_t{1} << 30));
  }
  std::vector<KernelRow> rows;
  for (const auto& [name, make] : TimedCases()) {
    BenchRig rig = BenchRig::Make(sim::DriverKind::kOpenMpCpu);
    rig.manager->SetDataScale(1);
    SimulatedDevice* dev = rig.dev();
    TimedLaunch timed = make(dev, Put(dev, keys.data(), kElems * 4), kElems);
    auto run_ms = [&](int threads) {
      for (const KernelLaunch& reset : timed.reset) Run(dev, reset);
      timed.launch.num_threads = threads;
      const auto start = Clock::now();
      Run(dev, timed.launch);
      return MsSince(start);
    };
    KernelRow row{name, std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::infinity()};
    for (int i = 0; i < kRuns; ++i) {
      row.scalar_ms = std::min(row.scalar_ms, run_ms(1));
      row.tiled_ms = std::min(row.tiled_ms, run_ms(kDefaultKernelThreads));
    }
    rows.push_back(row);
  }
  return rows;
}

// --- group_by (report only) --------------------------------------------------

/// Two host-clock minimums side by side.
struct GroupByRow {
  std::string subject;
  std::string a;
  std::string b;
  double a_ms = std::numeric_limits<double>::infinity();
  double b_ms = std::numeric_limits<double>::infinity();
};

/// One N=5 HASH_AGG launch vs its five N=1 launches over 2^22 rows of
/// `groups` random keys, each run into a freshly filled table.
GroupByRow HashAggRow(size_t groups) {
  constexpr size_t kElems = size_t{1} << 22;
  constexpr int kRuns = 11;
  Rng rng(20261019 + groups);
  std::vector<int32_t> keys(kElems), small(kElems);
  std::vector<int64_t> big(kElems);
  for (size_t i = 0; i < kElems; ++i) {
    keys[i] = static_cast<int32_t>(rng.Uniform(1, static_cast<int64_t>(groups)));
    small[i] = static_cast<int32_t>(rng.Uniform(1, 50));
    big[i] = rng.Uniform(1, 10000000);
  }
  BenchRig rig = BenchRig::Make(sim::DriverKind::kOpenMpCpu);
  rig.manager->SetDataScale(1);
  SimulatedDevice* dev = rig.dev();
  const BufferId key_buf = Put(dev, keys.data(), kElems * 4);
  const BufferId small_buf = Put(dev, small.data(), kElems * 4);
  std::vector<BufferId> big_bufs;
  for (int i = 0; i < 3; ++i) big_bufs.push_back(Put(dev, big.data(), kElems * 8));
  const std::vector<kernels::HashAggAccumulator> accs = {
      {AggOp::kSum, small_buf, ElementType::kInt32},
      {AggOp::kSum, big_bufs[0], ElementType::kInt64},
      {AggOp::kSum, big_bufs[1], ElementType::kInt64},
      {AggOp::kSum, big_bufs[2], ElementType::kInt64},
      {AggOp::kCount}};
  const size_t slots = HashTableLayout::SlotsFor(groups);
  // Times `launches`, each into its own freshly filled table.
  auto run_ms = [&](const std::vector<std::vector<kernels::HashAggAccumulator>>&
                        launches) {
    double ms = 0;
    for (const auto& list : launches) {
      const size_t bytes = HashTableLayout::AggTableBytes(slots, list.size());
      const BufferId table = Alloc(dev, bytes);
      Run(dev, kernels::MakeFill(table, HashTableLayout::kEmptyKey, bytes / 4));
      const KernelLaunch launch = kernels::MakeHashAgg(
          key_buf, list, table, slots, kElems, static_cast<double>(groups),
          false);
      const auto start = Clock::now();
      Run(dev, launch);
      ms += MsSince(start);
      ADAMANT_CHECK(dev->DeleteMemory(table).ok());
    }
    return ms;
  };
  std::vector<std::vector<kernels::HashAggAccumulator>> singles;
  for (const auto& acc : accs) singles.push_back({acc});
  GroupByRow row{"hash_agg " + std::to_string(groups) + " groups", "N=5",
                 "five N=1"};
  for (int i = 0; i < kRuns; ++i) {
    row.a_ms = std::min(row.a_ms, run_ms({accs}));
    row.b_ms = std::min(row.b_ms, run_ms(singles));
  }
  return row;
}

/// The HASH_AGG kernel_ms of hand-built Q1 and of SQL q1, compiled unfused
/// through CompileQuery on cuda_gpu at SF 0.1 and run chunked with
/// operator stats.
GroupByRow Q1HashAggRow() {
  constexpr int kRuns = 11;
  tpch::TpchConfig config;
  config.scale_factor = 0.1;
  config.include_dimension_tables = false;
  auto catalog = tpch::Generate(config);
  ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
  BenchRig rig = BenchRig::Make(sim::DriverKind::kCudaGpu);
  rig.manager->SetDataScale(1);
  auto kernel_ms = [&](bool sql) {
    CompileContext context;
    context.catalog = catalog->get();
    context.manager = rig.manager.get();
    context.placement = plan::PlacementPolicy::AllOn(rig.device);
    context.options.fusion = FusionMode::kOff;
    context.options.collect_operator_stats = true;
    QuerySource source;
    if (sql) {
      source.sql = sql::FindBuiltinQuery("q1")->sql;
    } else {
      auto bundle = plan::BuildQ1(**catalog, {}, rig.device);
      ADAMANT_CHECK(bundle.ok()) << bundle.status().ToString();
      source.bundle = std::move(*bundle);
    }
    auto plan = CompileQuery(std::move(source), context);
    ADAMANT_CHECK(plan.ok()) << plan.status().ToString();
    QueryExecutor executor(rig.manager.get());
    auto exec = executor.Run(plan->bundle.graph.get(), plan->options);
    ADAMANT_CHECK(exec.ok()) << exec.status().ToString();
    double ms = 0;
    for (const obs::OperatorStats& op : exec->stats.profile.operators) {
      if (op.kind == "hash_agg") ms += op.kernel_ms;
    }
    return ms;
  };
  GroupByRow row{"q1 hash_agg kernel_ms", "hand-built Q1", "SQL q1"};
  for (int i = 0; i < kRuns; ++i) {
    row.a_ms = std::min(row.a_ms, kernel_ms(false));
    row.b_ms = std::min(row.b_ms, kernel_ms(true));
  }
  return row;
}

std::vector<GroupByRow> GroupByRows() {
  return {HashAggRow(4), HashAggRow(size_t{1} << 16), Q1HashAggRow()};
}

// --- The one emitter ---------------------------------------------------------

bool Report(const std::vector<Gate>& gates, const std::vector<KernelRow>& rows,
            const std::vector<GroupByRow>& group_by, const char* path) {
  std::FILE* json = std::fopen(path, "w");
  ADAMANT_CHECK(json != nullptr) << "cannot open " << path;
  std::fprintf(json, "{\"clock\":\"host\",\"gates\":[");
  bool ok = true;
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    ok = ok && g.pass();
    std::printf("%-4s %-38s %-18s %10.3f %s %10.3f\n",
                g.pass() ? "OK" : "FAIL", g.name.c_str(), g.subject.c_str(),
                g.value, g.at_least ? ">=" : "<=", g.bound);
    std::fprintf(json,
                 "%s{\"gate\":\"%s\",\"subject\":\"%s\",\"value\":%.4f,"
                 "\"%s\":%.4f,\"pass\":%s}",
                 i == 0 ? "" : ",", g.name.c_str(), g.subject.c_str(), g.value,
                 g.at_least ? "min" : "max", g.bound,
                 g.pass() ? "true" : "false");
  }
  std::fprintf(json, "],\"tiled_kernels\":[");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::printf("INFO %-38s %-18s %10.3f ms scalar %8.3f ms tiled\n",
                "tiled_kernels min of 11, 2^22 rows", r.kernel.c_str(),
                r.scalar_ms, r.tiled_ms);
    std::fprintf(json,
                 "%s{\"kernel\":\"%s\",\"scalar_ms\":%.4f,"
                 "\"tiled_ms\":%.4f}",
                 i == 0 ? "" : ",", r.kernel.c_str(), r.scalar_ms,
                 r.tiled_ms);
  }
  std::fprintf(json, "],\"group_by\":[");
  for (size_t i = 0; i < group_by.size(); ++i) {
    const GroupByRow& r = group_by[i];
    std::printf("INFO %-38s %-22s %s %.3f ms, %s %.3f ms\n",
                "group_by min of 11", r.subject.c_str(), r.a.c_str(), r.a_ms,
                r.b.c_str(), r.b_ms);
    std::fprintf(json,
                 "%s{\"subject\":\"%s\",\"%s\":%.4f,\"%s\":%.4f}",
                 i == 0 ? "" : ",", r.subject.c_str(), r.a.c_str(), r.a_ms,
                 r.b.c_str(), r.b_ms);
  }
  std::fprintf(json, "],\"pass\":%s}\n", ok ? "true" : "false");
  std::fclose(json);
  std::printf("%s (host clock); wrote %s\n",
              ok ? "all gates passed" : "GATE FAILED", path);
  return ok;
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using namespace adamant::bench;
  std::vector<Gate> gates;
  SqlCompileGates(&gates);
  ObsOverheadGates(&gates);
  DeadlineGates(&gates);
  return Report(gates, TiledKernelRows(), GroupByRows(), "BENCH_gates.json")
             ? 0
             : 1;
}
