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
// Every measured value, its bound and verdict go to BENCH_gates.json in the
// working directory; the exit status is 1 when any gate fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

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

/// An open loop of 40 queries `interval_ms` apart. With `shed`, deadline
/// shedding is on and every query carries `deadline_ms`; without it the
/// queue simply builds.
Phase RunLoaded(double interval_ms, double deadline_ms, bool shed) {
  auto manager = MakeStallRig();
  ServiceConfig config;
  config.workers = 1;
  config.slo.shed_on_admission = shed;
  config.slo.evict_lapsed = shed;
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

// --- The one emitter ---------------------------------------------------------

bool Report(const std::vector<Gate>& gates, const char* path) {
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
  return Report(gates, "BENCH_gates.json") ? 0 : 1;
}
