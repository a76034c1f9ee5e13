// Closed-loop benchmark harness for the ADAMANT executor.
//
// It reaches the program only through its public entry points:
//   * ad-hoc SQL: sql::Compile (or sql::Parse/Bind/PlanQuery when traced),
//     plan::LowerPlan, plan::ApplyFusion, QueryExecutor::Run,
//     sql::ExtractResults — the path `run_tpch --sql` takes;
//   * served queries: QueryService::Submit / QueryTicket::Wait with a
//     make_graph factory over plan::BuildQ*, then plan::ExtractQ*.
// Every result is checked against an independent reference outside the
// timed window, and the last stdout line is one JSON report. perfbench/run.py
// builds this binary, passes it a workload's parameters from
// perfbench/spec.json, and prints the metrics BENCHMARK.json names.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/date.h"
#include "device/device_manager.h"
#include "plan/fusion.h"
#include "plan/lowering.h"
#include "plan/tpch_plans.h"
#include "runtime/executor.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "sql/builtin_queries.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "task/kernel_registry.h"
#include "tpch/queries.h"
#include "tpch/reference.h"
#include "tpch/tpch_gen.h"

namespace adamant::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  std::string mode;  // "adhoc" | "served"
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0.03;
  double nominal_sf = 0.03;
  std::string driver = "cuda_gpu";
  size_t devices = 1;
  size_t clients = 1;
  size_t workers = 1;
  int kernel_threads = 0;
  /// Only set up, print the set-up times and exit: run.py measures
  /// setup_s over several such fresh processes.
  bool setup_only = false;
  /// Every client runs at least this many whole blocks; sim_ms_per_query
  /// averages exactly these blocks, so it repeats for a fixed seed.
  size_t sim_blocks = 2;
  std::string trace_out;
};

bool TakeFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Result<Config> ParseArgs(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (TakeFlag(arg, "workload", &v)) c.workload = v;
      else if (TakeFlag(arg, "mode", &v)) c.mode = v;
      else if (TakeFlag(arg, "seed", &v)) c.seed = std::stoull(v);
      else if (TakeFlag(arg, "seconds", &v)) c.seconds = std::stod(v);
      else if (TakeFlag(arg, "trace", &v)) c.trace = v == "1";
      else if (TakeFlag(arg, "sf", &v)) c.sf = std::stod(v);
      else if (TakeFlag(arg, "nominal-sf", &v)) c.nominal_sf = std::stod(v);
      else if (TakeFlag(arg, "driver", &v)) c.driver = v;
      else if (TakeFlag(arg, "devices", &v)) c.devices = std::stoul(v);
      else if (TakeFlag(arg, "clients", &v)) c.clients = std::stoul(v);
      else if (TakeFlag(arg, "workers", &v)) c.workers = std::stoul(v);
      else if (TakeFlag(arg, "kernel-threads", &v))
        c.kernel_threads = std::stoi(v);
      else if (arg == "--setup-only") c.setup_only = true;
      else if (TakeFlag(arg, "sim-blocks", &v)) c.sim_blocks = std::stoul(v);
      else if (TakeFlag(arg, "trace-out", &v)) c.trace_out = v;
      else return Status::InvalidArgument("unknown flag " + arg);
    } catch (const std::exception&) {
      return Status::InvalidArgument("malformed value in " + arg);
    }
  }
  if (c.mode != "adhoc" && c.mode != "served") {
    return Status::InvalidArgument("--mode must be adhoc or served");
  }
  if (c.mode == "adhoc" && (c.clients != 1 || c.devices != 1)) {
    return Status::InvalidArgument("adhoc mode runs one client on one device");
  }
  if (c.seconds <= 0 || c.sf <= 0 || c.nominal_sf <= 0 || c.devices == 0 ||
      c.clients == 0 || (c.mode == "served" && c.workers == 0) ||
      c.sim_blocks == 0) {
    return Status::InvalidArgument("numeric flags must be positive");
  }
  return c;
}

Result<sim::DriverKind> DriverKindFromName(const std::string& name) {
  if (name == "cuda_gpu") return sim::DriverKind::kCudaGpu;
  if (name == "opencl_gpu") return sim::DriverKind::kOpenClGpu;
  if (name == "opencl_cpu") return sim::DriverKind::kOpenClCpu;
  if (name == "openmp_cpu") return sim::DriverKind::kOpenMpCpu;
  return Status::InvalidArgument("unknown driver " + name);
}

// ---------------------------------------------------------------------------
// Host readings: process CPU, peak RSS, host steal time.
// ---------------------------------------------------------------------------

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-wide CPU steal time in seconds (summed over CPUs), from the
/// aggregate "cpu" line of /proc/stat; -1 when unavailable.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (!in || label != "cpu") return -1;
  unsigned long long fields[8] = {};
  for (unsigned long long& f : fields) in >> f;
  if (!in) return -1;
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------------
// Spans: one per timed call into the program, kept in memory, written out
// once at the end of the run.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t request = 0;
  double start_ms = 0;  // from the tracer's origin
  double end_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void Record(const char* name, uint64_t request, Clock::time_point start,
              Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, request, Ms(origin_, start), Ms(origin_, end)});
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-request call timer: sums the wall time spent inside program calls
/// (for bench.harness_share) and, when the request is traced, records a
/// span per call.
struct CallTimer {
  Tracer* tracer = nullptr;  // null = untraced request
  uint64_t request = 0;
  double in_program_ms = 0;

  template <typename F>
  decltype(auto) operator()(const char* name, F&& fn) {
    const Clock::time_point start = Clock::now();
    decltype(auto) result = fn();
    const Clock::time_point end = Clock::now();
    in_program_ms += Ms(start, end);
    if (tracer != nullptr) tracer->Record(name, request, start, end);
    return result;
  }
};

// ---------------------------------------------------------------------------
// Requests: seeded query kinds and literal constants.
// ---------------------------------------------------------------------------

enum class Kind { kQ1, kQ3, kQ4, kQ6, kShipmodeRollup, kPriorityWindow };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQ1: return "q1";
    case Kind::kQ3: return "q3";
    case Kind::kQ4: return "q4";
    case Kind::kQ6: return "q6";
    case Kind::kShipmodeRollup: return "shipmode_rollup";
    case Kind::kPriorityWindow: return "priority_window";
  }
  return "?";
}

/// Literal constants of one request, drawn from the TPC-H substitution
/// ranges (spec 2.4) for q1/q3/q4/q6 and from comparable windows for the
/// two SQL-only builtins.
struct Params {
  tpch::Q1Params q1;
  tpch::Q3Params q3;
  tpch::Q4Params q4;
  tpch::Q6Params q6;
  int32_t window_start = 0;   // SQL-only builtins: first day of the window
  int64_t min_price = 150000;  // priority_window: o_totalprice threshold
};

const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD", "MACHINERY"};

int Uniform(std::mt19937_64& rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
}

int32_t MonthStart(int first_year, int months_after) {
  return Date::FromYmd(first_year, 1, 1).AddMonths(months_after).days();
}

/// `ordinal` counts earlier draws of `kind` from the same stream: Q3's
/// market segment cycles through all five, so every seed runs each segment
/// equally often.
Params DrawParams(Kind kind, std::mt19937_64& rng, size_t ordinal) {
  Params p;
  switch (kind) {
    case Kind::kQ1:
      p.q1.delta_days = Uniform(rng, 60, 120);
      break;
    case Kind::kQ3:
      p.q3.segment = kSegments[ordinal % 5];
      p.q3.date = Date::FromYmd(1995, 3, Uniform(rng, 1, 31)).days();
      break;
    case Kind::kQ4:  // a month start in 1993-01 .. 1997-10
      p.q4.date = MonthStart(1993, Uniform(rng, 0, 57));
      break;
    case Kind::kQ6:
      p.q6.date = Date::FromYmd(Uniform(rng, 1993, 1997), 1, 1).days();
      p.q6.discount_pct = Uniform(rng, 2, 9);
      p.q6.quantity = Uniform(rng, 24, 25);
      break;
    case Kind::kShipmodeRollup:  // one-year window from 1993-01 .. 1997-01
      p.window_start = MonthStart(1993, Uniform(rng, 0, 48));
      break;
    case Kind::kPriorityWindow:  // half-year window from 1993-01 .. 1997-06
      p.window_start = MonthStart(1993, Uniform(rng, 0, 53));
      p.min_price = 100000 + 5000 * Uniform(rng, 0, 20);
      break;
  }
  return p;
}

std::string DateLiteral(int32_t days) {
  return "DATE '" + Date(days).ToString() + "'";
}

/// Replaces every occurrence of each `from` in one left-to-right pass (a
/// replacement is never rescanned). Fails when a pattern is absent, so a
/// changed builtin text cannot silently stop varying.
Result<std::string> Substitute(
    const std::string& text,
    const std::vector<std::pair<std::string, std::string>>& subs) {
  std::string out;
  std::vector<size_t> hits(subs.size(), 0);
  for (size_t i = 0; i < text.size();) {
    bool replaced = false;
    for (size_t s = 0; s < subs.size(); ++s) {
      if (text.compare(i, subs[s].first.size(), subs[s].first) == 0) {
        out += subs[s].second;
        i += subs[s].first.size();
        ++hits[s];
        replaced = true;
        break;
      }
    }
    if (!replaced) out += text[i++];
  }
  for (size_t s = 0; s < subs.size(); ++s) {
    if (hits[s] == 0) {
      return Status::Internal("builtin text no longer contains \"" +
                              subs[s].first + "\"");
    }
  }
  return out;
}

/// The builtin's SQL text with this request's literal constants.
Result<std::string> SqlText(Kind kind, const Params& p) {
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(KindName(kind));
  if (builtin == nullptr) {
    return Status::Internal(std::string("no builtin ") + KindName(kind));
  }
  char buf[64];
  switch (kind) {
    case Kind::kQ1:
      return Substitute(builtin->sql, {{"DATE '1998-09-02'",
                                        DateLiteral(p.q1.ship_cutoff())}});
    case Kind::kQ3:
      return Substitute(builtin->sql,
                        {{"'BUILDING'", "'" + p.q3.segment + "'"},
                         {"DATE '1995-03-15'", DateLiteral(p.q3.date)}});
    case Kind::kQ4:
      return Substitute(builtin->sql,
                        {{"DATE '1993-07-01'", DateLiteral(p.q4.date)},
                         {"DATE '1993-10-01'", DateLiteral(p.q4.date_end())}});
    case Kind::kQ6:
      std::snprintf(buf, sizeof(buf), "BETWEEN %.2f AND %.2f",
                    (p.q6.discount_pct - 1) / 100.0,
                    (p.q6.discount_pct + 1) / 100.0);
      return Substitute(
          builtin->sql,
          {{"DATE '1994-01-01'", DateLiteral(p.q6.date)},
           {"DATE '1995-01-01'", DateLiteral(p.q6.date_end())},
           {"BETWEEN 0.05 AND 0.07", buf},
           {"l_quantity < 24",
            "l_quantity < " + std::to_string(p.q6.quantity)}});
    case Kind::kShipmodeRollup:
      return Substitute(
          builtin->sql,
          {{"DATE '1995-01-01'", DateLiteral(p.window_start)},
           {"DATE '1996-01-01'",
            DateLiteral(Date(p.window_start).AddMonths(12).days())}});
    case Kind::kPriorityWindow:
      return Substitute(
          builtin->sql,
          {{"DATE '1994-01-01'", DateLiteral(p.window_start)},
           {"DATE '1994-07-01'",
            DateLiteral(Date(p.window_start).AddMonths(6).days())},
           {"150000.00", std::to_string(p.min_price) + ".00"}});
  }
  return Status::Internal("unreachable");
}

/// One client's request stream: whole blocks, each a seeded permutation of
/// every query kind, so every block carries the same mix.
class RequestStream {
 public:
  RequestStream(std::vector<Kind> kinds, uint64_t seed)
      : kinds_(std::move(kinds)), rng_(seed), offset_(rng_()) {}

  std::vector<Kind> NextBlock() {
    std::vector<Kind> block = kinds_;
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng_() % i]);
    }
    return block;
  }
  Params Draw(Kind kind) {
    return DrawParams(kind, rng_, offset_ + drawn_[kind]++);
  }

 private:
  std::vector<Kind> kinds_;
  std::mt19937_64 rng_;
  size_t offset_;
  std::map<Kind, size_t> drawn_;
};

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Set-up: catalog, devices, kernels, service.
// ---------------------------------------------------------------------------

struct Setup {
  std::shared_ptr<Catalog> catalog;
  std::unique_ptr<DeviceManager> manager;
  std::unique_ptr<QueryService> service;  // served mode only
  double generate_s = 0;
  double plug_s = 0;
  double start_s = 0;
  double total_s = 0;
};

Result<std::unique_ptr<Setup>> MakeSetup(const Config& c) {
  auto s = std::make_unique<Setup>();
  ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind kind, DriverKindFromName(c.driver));
  const Clock::time_point t0 = Clock::now();
  tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = c.sf;
  ADAMANT_ASSIGN_OR_RETURN(s->catalog, tpch::Generate(tpch_config));
  const Clock::time_point t1 = Clock::now();
  s->manager = std::make_unique<DeviceManager>();
  s->manager->SetDataScale(c.nominal_sf / c.sf);
  for (size_t i = 0; i < c.devices; ++i) {
    ADAMANT_ASSIGN_OR_RETURN(
        DeviceId id, s->manager->AddDriver(kind, c.driver + "." +
                                                     std::to_string(i)));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(s->manager->device(id)));
  }
  const Clock::time_point t2 = Clock::now();
  if (c.mode == "served") {
    ServiceConfig config;
    config.workers = c.workers;
    s->service = std::make_unique<QueryService>(s->manager.get(), config);
  }
  const Clock::time_point t3 = Clock::now();
  s->generate_s = Ms(t0, t1) / 1e3;
  s->plug_s = Ms(t1, t2) / 1e3;
  s->start_s = Ms(t2, t3) / 1e3;
  s->total_s = Ms(t0, t3) / 1e3;
  return s;
}

// ---------------------------------------------------------------------------
// Per-request records.
// ---------------------------------------------------------------------------

/// Per-layer counters the program returns with one request, keyed by the
/// per-layer metric they feed: QueryStats, its profile and operator tree,
/// and DeviceRunStats.
using Layers = std::map<std::string, double>;

void ReadLayers(const QueryStats& stats, Layers* out) {
  Layers& l = *out;
  l["runtime.run_ms"] = stats.profile.run_ms;
  l["runtime.chunks"] = static_cast<double>(stats.chunks);
  l["runtime.h2d_mib"] =
      static_cast<double>(stats.bytes_h2d) / (1024.0 * 1024.0);
  for (const obs::OperatorStats& op : stats.profile.operators) {
    l["task.kernel_ms"] += op.kernel_ms;
    l["task.scalar_ms"] += op.scalar_ms;
    l["task.parallel_ms"] += op.parallel_ms;
    l["task.fused_ms"] += op.fused_ms;
    l["task.launches"] += static_cast<double>(op.launches);
  }
  for (const DeviceRunStats& d : stats.devices) {
    l["task.parallel_launches"] += static_cast<double>(d.parallel_launches);
    l["device.execute_calls"] += static_cast<double>(d.execute_calls);
  }
  l["sim.kernel_body_ms"] = static_cast<double>(stats.kernel_body_us) / 1e3;
  l["sim.transfer_wire_ms"] = static_cast<double>(stats.transfer_wire_us) / 1e3;
}

/// A Q1/Q3/Q4/Q6 result in the tpch reference types: what a served request
/// extracted, or what tpch::Q*Reference computes.
struct TpchResult {
  std::vector<tpch::Q1Row> q1;
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  int64_t q6 = 0;
  bool operator==(const TpchResult&) const = default;
};

struct Outcome {
  Kind kind = Kind::kQ1;
  size_t client = 0;
  size_t block = 0;
  bool traced = false;
  uint64_t request = 0;
  double latency_ms = 0;
  double end_ms = 0;  // completion, in measured time from the window start
  double in_program_ms = 0;
  bool ok = false;          // the program returned a result
  bool correct = false;     // ... and it matched the reference
  std::string error;        // status or mismatch description
  double sim_us = 0;
  double chunks = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  Layers layers;  // traced requests only
  Params params;      // the request's literal constants
  std::string text;   // its SQL text: the key for repeats and references
  TpchResult result;  // served only: what plan::ExtractQ* returned
};

/// What every request keeps; traced requests also keep their layers.
void RecordStats(const QueryStats& stats, Outcome* out) {
  out->sim_us = static_cast<double>(stats.elapsed_us);
  out->chunks = static_cast<double>(stats.chunks);
  out->cache_hits = static_cast<double>(stats.scan_cache_hits);
  out->cache_misses = static_cast<double>(stats.scan_cache_misses);
  if (out->traced) ReadLayers(stats, &out->layers);
}

struct ClientLog {
  std::vector<Outcome> outcomes;
  double window_ms = 0;      // this client's measured time
  double in_program_ms = 0;  // ... of which inside program calls
};

/// What one measured window produced.
struct WindowRun {
  std::vector<ClientLog> clients;
  double window_ms = 0;
  double cpu_ms = 0;          // process CPU in the window, checks excluded
  double check_ms = 0;        // reference checks, excluded from the window
  double cache_evictions = 0;  // served: column-cache evictions
  double working_set_mib = 0;  // served: nominal bytes the mix scans
  double cache_budget_mib = 0;  // served: per-device column-cache budget
  std::vector<Outcome> probes;  // ad-hoc: SQL q3 runs outside the mix
};

// ---------------------------------------------------------------------------
// Ad-hoc SQL: one client, direct executor path, compile on every request.
// ---------------------------------------------------------------------------

/// What one ad-hoc request leaves behind for its reference check.
struct AdhocArtifacts {
  sql::CompiledQuery compiled;
  plan::PlanBundle bundle;
  QueryExecution exec;
  sql::SqlResultSet rows;
};

/// Runs one ad-hoc request end to end. `timer.tracer` set = traced: SQL is
/// compiled phase by phase and operator stats are collected.
Status RunAdhocRequest(Setup& s, const std::string& text, CallTimer& timer,
                       Outcome* out, AdhocArtifacts* a) {
  const bool traced = timer.tracer != nullptr;
  const DeviceId device = 0;
  sql::PlannerOptions planner_options;
  planner_options.manager = s.manager.get();
  planner_options.cost_device = device;
  if (traced) {
    auto stmt = timer("sql.parse", [&] { return sql::Parse(text); });
    ADAMANT_RETURN_NOT_OK(stmt.status());
    auto bound =
        timer("sql.bind", [&] { return sql::Bind(**stmt, *s.catalog); });
    ADAMANT_RETURN_NOT_OK(bound.status());
    auto planned = timer("sql.plan", [&] {
      return sql::PlanQuery(std::move(*bound), *s.catalog, planner_options);
    });
    ADAMANT_RETURN_NOT_OK(planned.status());
    a->compiled = std::move(*planned);
  } else {
    auto planned = timer("sql.compile", [&] {
      return sql::Compile(text, *s.catalog, planner_options);
    });
    ADAMANT_RETURN_NOT_OK(planned.status());
    a->compiled = std::move(*planned);
  }
  auto lowered = timer("plan.lower", [&] {
    return plan::LowerPlan(*a->compiled.plan, *s.catalog, device);
  });
  ADAMANT_RETURN_NOT_OK(lowered.status());
  a->bundle = std::move(*lowered);

  ExecutionOptions options;  // chunked, nominal 2^25-element chunks
  options.collect_profile = traced;
  options.collect_operator_stats = traced;
  auto fusion = timer("plan.fusion", [&] {
    return plan::ApplyFusion(&a->bundle, options, s.manager.get());
  });
  ADAMANT_RETURN_NOT_OK(fusion.status());
  QueryExecutor executor(s.manager.get());
  auto run = timer("runtime.run", [&] {
    return executor.Run(a->bundle.graph.get(), options);
  });
  ADAMANT_RETURN_NOT_OK(run.status());
  a->exec = std::move(*run);
  auto rows = timer("sql.extract", [&] {
    return sql::ExtractResults(a->compiled, a->bundle, a->exec);
  });
  ADAMANT_RETURN_NOT_OK(rows.status());
  a->rows = std::move(*rows);
  RecordStats(a->exec.stats, out);
  if (traced) out->layers["plan.fused_groups"] = fusion->groups;
  return Status::OK();
}

/// The independent reference for one TPC-H query and parameter set.
Result<TpchResult> Reference(const Catalog& catalog, Kind kind,
                               const Params& p) {
  TpchResult ref;
  switch (kind) {
    case Kind::kQ1: {
      ADAMANT_ASSIGN_OR_RETURN(ref.q1, tpch::Q1Reference(catalog, p.q1));
      return ref;
    }
    case Kind::kQ3: {
      ADAMANT_ASSIGN_OR_RETURN(ref.q3, tpch::Q3Reference(catalog, p.q3));
      return ref;
    }
    case Kind::kQ4: {
      ADAMANT_ASSIGN_OR_RETURN(ref.q4, tpch::Q4Reference(catalog, p.q4));
      return ref;
    }
    case Kind::kQ6: {
      ADAMANT_ASSIGN_OR_RETURN(ref.q6, tpch::Q6Reference(catalog, p.q6));
      return ref;
    }
    default:
      return Status::Internal("unsupported kind");
  }
}

/// A TPC-H result in the SQL result layout of the matching
/// builtin: storage encodings, AVG as a double, Q3 without the host-joined
/// orderdate/shippriority columns the SQL text does not select.
std::vector<std::vector<sql::SqlValue>> SqlRows(Kind kind,
                                                const TpchResult& r) {
  auto cell = [](int64_t v) {
    sql::SqlValue value;
    value.i = v;
    return value;
  };
  std::vector<std::vector<sql::SqlValue>> rows;
  switch (kind) {
    case Kind::kQ1:
      for (const tpch::Q1Row& q : r.q1) {
        sql::SqlValue avg_qty;
        avg_qty.is_double = true;
        avg_qty.d = q.count > 0 ? static_cast<double>(q.sum_qty) /
                                      static_cast<double>(q.count)
                                : 0;
        rows.push_back({cell(q.returnflag), cell(q.linestatus),
                        cell(q.sum_qty), cell(q.sum_base_price),
                        cell(q.sum_disc_price), cell(q.sum_charge), avg_qty,
                        cell(q.count)});
      }
      break;
    case Kind::kQ3:
      for (const tpch::Q3Row& q : r.q3) {
        rows.push_back({cell(q.orderkey), cell(q.revenue)});
      }
      break;
    case Kind::kQ4:
      for (const tpch::Q4Row& q : r.q4) {
        rows.push_back({cell(q.priority), cell(q.order_count)});
      }
      break;
    case Kind::kQ6:
      rows.push_back({cell(r.q6)});
      break;
    default:
      break;
  }
  return rows;
}

/// Checks an ad-hoc result: the TPC-H builtins against tpch::Q*Reference
/// with the request's literals, the SQL-only builtins against the host
/// interpreter `run_tpch --verify` uses.
Status CheckAdhoc(const Catalog& catalog, Kind kind, const Params& p,
                  const AdhocArtifacts& a) {
  if (kind == Kind::kShipmodeRollup || kind == Kind::kPriorityWindow) {
    return sql::VerifyAgainstInterpreter(a.compiled, a.bundle, a.exec, catalog);
  }
  ADAMANT_ASSIGN_OR_RETURN(TpchResult want, Reference(catalog, kind, p));
  if (a.rows.rows != SqlRows(kind, want)) {
    return Status::Internal(std::string(KindName(kind)) +
                            " rows differ from the tpch reference");
  }
  return Status::OK();
}

/// SQL q3 is left out of the measured mix because its plan overflows the
/// aggregation hash table ("aggregation hash table full") for some market
/// segments at every SF >= 0.03, and a benchmark operation must not fail.
/// Every ad-hoc run still runs it once per segment at the builtin's date,
/// after the window, and reports each failure, so the defect stays in view
/// and its fix shows as probes that pass.
std::vector<Params> Q3Probes() {
  std::vector<Params> probes;
  for (const char* segment : kSegments) {
    Params p;
    p.q3.segment = segment;
    probes.push_back(p);
  }
  return probes;
}

Result<WindowRun> RunAdhoc(const Config& c, Setup& s, Tracer* tracer) {
  const std::vector<Kind> kinds = {Kind::kQ1, Kind::kQ4, Kind::kQ6,
                                   Kind::kShipmodeRollup,
                                   Kind::kPriorityWindow};
  RequestStream stream(kinds, MixSeed(c.seed, 0));
  ClientLog log;
  double check_ms = 0;
  double check_cpu_ms = 0;
  uint64_t next_request = 0;

  auto one = [&](Kind kind, const Params& params,
                 bool traced) -> Result<Outcome> {
    ADAMANT_ASSIGN_OR_RETURN(std::string text, SqlText(kind, params));
    Outcome out;
    out.kind = kind;
    out.params = params;
    out.text = text;
    out.traced = traced;
    out.request = next_request++;
    CallTimer timer{traced ? tracer : nullptr, out.request, 0};
    AdhocArtifacts artifacts;
    const Clock::time_point start = Clock::now();
    Status st = RunAdhocRequest(s, text, timer, &out, &artifacts);
    const Clock::time_point end = Clock::now();
    if (traced) tracer->Record("request", out.request, start, end);
    out.latency_ms = Ms(start, end);
    out.in_program_ms = timer.in_program_ms;
    out.ok = st.ok();
    if (st.ok()) {
      // Reference check, outside the measured window.
      const Clock::time_point check_start = Clock::now();
      const double cpu_start = ProcessCpuMs();
      Status verdict = CheckAdhoc(*s.catalog, kind, params, artifacts);
      check_cpu_ms += ProcessCpuMs() - cpu_start;
      check_ms += Ms(check_start, Clock::now());
      out.correct = verdict.ok();
      if (!verdict.ok()) out.error = "wrong result: " + verdict.ToString();
    } else {
      out.error = st.ToString();
    }
    return out;
  };

  // Warm-up: one untraced block, not measured.
  for (Kind kind : stream.NextBlock()) {
    ADAMANT_RETURN_NOT_OK(one(kind, stream.Draw(kind), false).status());
  }
  check_ms = 0;
  check_cpu_ms = 0;

  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  for (size_t block = 0;; ++block) {
    const double active_ms = Ms(start, Clock::now()) - check_ms;
    if (block >= c.sim_blocks && active_ms >= c.seconds * 1e3) break;
    const bool traced = c.trace && block % 2 == 1;
    for (Kind kind : stream.NextBlock()) {
      ADAMANT_ASSIGN_OR_RETURN(Outcome out,
                               one(kind, stream.Draw(kind), traced));
      log.outcomes.push_back(std::move(out));
      log.outcomes.back().end_ms = Ms(start, Clock::now()) - check_ms;
      log.outcomes.back().block = block;
      log.in_program_ms += log.outcomes.back().in_program_ms;
    }
  }
  WindowRun run;
  log.window_ms = Ms(start, Clock::now()) - check_ms;
  run.window_ms = log.window_ms;
  run.cpu_ms = ProcessCpuMs() - cpu_start - check_cpu_ms;
  run.check_ms = check_ms;
  run.clients.push_back(std::move(log));
  for (const Params& params : Q3Probes()) {
    ADAMANT_ASSIGN_OR_RETURN(Outcome out, one(Kind::kQ3, params, false));
    run.probes.push_back(std::move(out));
  }
  return run;
}

// ---------------------------------------------------------------------------
// Served: a QueryService, closed-loop clients, hand-built Q1/Q3/Q4/Q6.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PrimitiveGraph>> BuildGraph(const Catalog& catalog,
                                                   Kind kind, const Params& p,
                                                   DeviceId device) {
  Result<plan::PlanBundle> bundle = Status::Internal("unsupported kind");
  switch (kind) {
    case Kind::kQ1: bundle = plan::BuildQ1(catalog, p.q1, device); break;
    case Kind::kQ3: bundle = plan::BuildQ3(catalog, p.q3, device); break;
    case Kind::kQ4: bundle = plan::BuildQ4(catalog, p.q4, device); break;
    case Kind::kQ6: bundle = plan::BuildQ6(catalog, p.q6, device); break;
    default: break;
  }
  ADAMANT_RETURN_NOT_OK(bundle.status());
  return std::move(bundle->graph);
}

/// Node ids are deterministic per builder, so one bundle per kind extracts
/// every served execution of that kind.
Result<std::map<Kind, plan::PlanBundle>> MakeTemplates(const Catalog& catalog) {
  std::map<Kind, plan::PlanBundle> templates;
  ADAMANT_ASSIGN_OR_RETURN(templates[Kind::kQ1], plan::BuildQ1(catalog, {}, 0));
  ADAMANT_ASSIGN_OR_RETURN(templates[Kind::kQ3], plan::BuildQ3(catalog, {}, 0));
  ADAMANT_ASSIGN_OR_RETURN(templates[Kind::kQ4], plan::BuildQ4(catalog, {}, 0));
  ADAMANT_ASSIGN_OR_RETURN(templates[Kind::kQ6], plan::BuildQ6(catalog, {}, 0));
  return templates;
}

Status Extract(const plan::PlanBundle& bundle, const QueryExecution& exec,
               const Catalog& catalog, Kind kind, const Params& p,
               TpchResult* out) {
  switch (kind) {
    case Kind::kQ1: {
      ADAMANT_ASSIGN_OR_RETURN(out->q1, plan::ExtractQ1(bundle, exec));
      return Status::OK();
    }
    case Kind::kQ3: {
      ADAMANT_ASSIGN_OR_RETURN(out->q3,
                               plan::ExtractQ3(bundle, exec, catalog, p.q3));
      return Status::OK();
    }
    case Kind::kQ4: {
      ADAMANT_ASSIGN_OR_RETURN(out->q4, plan::ExtractQ4(bundle, exec));
      return Status::OK();
    }
    case Kind::kQ6: {
      ADAMANT_ASSIGN_OR_RETURN(out->q6, plan::ExtractQ6(bundle, exec));
      return Status::OK();
    }
    default:
      return Status::Internal("unsupported kind");
  }
}

struct ServedContext {
  Setup* setup;
  Tracer* tracer;
  const std::map<Kind, plan::PlanBundle>* templates;
  ExecutionOptions options;
  std::atomic<uint64_t> next_request{0};
};

/// Runs one served request; fills `out`. Only harness failures return an
/// error; program failures are recorded in `out`.
void RunServedRequest(ServedContext& ctx, Kind kind, const Params& params,
                      bool traced, Outcome* out) {
  const Catalog* catalog = ctx.setup->catalog.get();
  out->kind = kind;
  out->params = params;
  out->traced = traced;
  out->request = ctx.next_request.fetch_add(1);
  CallTimer timer{traced ? ctx.tracer : nullptr, out->request, 0};

  QuerySpec spec;
  spec.name = KindName(kind);
  spec.options = ctx.options;
  Tracer* tracer = timer.tracer;
  const uint64_t request = out->request;
  spec.make_graph = [catalog, kind, params, tracer,
                     request](DeviceId device)
      -> Result<std::unique_ptr<PrimitiveGraph>> {
    const Clock::time_point start = Clock::now();
    auto graph = BuildGraph(*catalog, kind, params, device);
    if (tracer != nullptr) {
      tracer->Record("plan.build", request, start, Clock::now());
    }
    return graph;
  };

  const Clock::time_point start = Clock::now();
  Status st = Status::OK();
  auto submitted = timer("service.submit", [&] {
    return ctx.setup->service->Submit(std::move(spec));
  });
  if (!submitted.ok()) {
    st = submitted.status();
  } else {
    std::shared_ptr<QueryTicket> ticket = std::move(*submitted);
    const Result<QueryExecution>& result =
        timer("service.wait", [&]() -> const Result<QueryExecution>& {
          return ticket->Wait();
        });
    if (!result.ok()) {
      st = result.status();
    } else {
      st = timer("plan.extract", [&] {
        return Extract(ctx.templates->at(kind), *result, *catalog, kind,
                       params, &out->result);
      });
      RecordStats(result->stats, out);
      if (traced) {
        out->layers["service.queue_wait_ms"] = ticket->queue_wait_ms();
        out->layers["service.run_ms"] = ticket->run_ms();
        out->layers["service.overhead_ms"] =
            ticket->run_ms() - result->stats.profile.run_ms;
      }
    }
  }
  const Clock::time_point end = Clock::now();
  if (traced) ctx.tracer->Record("request", out->request, start, end);
  out->latency_ms = Ms(start, end);
  out->in_program_ms = timer.in_program_ms;
  out->ok = st.ok();
  if (!st.ok()) out->error = st.ToString();
}

Result<WindowRun> RunServed(const Config& c, Setup& s, Tracer* tracer) {
  const std::vector<Kind> kinds = {Kind::kQ1, Kind::kQ3, Kind::kQ4, Kind::kQ6};
  ADAMANT_ASSIGN_OR_RETURN(auto templates, MakeTemplates(*s.catalog));
  ServedContext ctx;
  ctx.setup = &s;
  ctx.tracer = tracer;
  ctx.templates = &templates;
  ctx.options.kernel_threads = c.kernel_threads;

  WindowRun run;
  std::set<const Column*> scanned;
  double scanned_bytes = 0;
  for (const auto& [kind, bundle] : templates) {
    for (const GraphEdge& edge : bundle.graph->edges()) {
      if (edge.is_scan() && scanned.insert(edge.column.get()).second) {
        scanned_bytes += static_cast<double>(edge.column->byte_size());
      }
    }
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  run.working_set_mib = scanned_bytes * s.manager->data_scale() / kMiB;
  // ServiceConfig's default cache budget: a quarter of the smallest arena.
  size_t min_arena = SIZE_MAX;
  for (size_t d = 0; d < c.devices; ++d) {
    min_arena = std::min(
        min_arena,
        s.manager->device(static_cast<DeviceId>(d))->device_arena().capacity());
  }
  run.cache_budget_mib = static_cast<double>(min_arena / 4) / kMiB;

  // Warm-up (not measured): every kind once on every device, so the column
  // caches and lazily started pools are in their steady state.
  for (size_t d = 0; d < c.devices; ++d) {
    for (Kind kind : kinds) {
      QuerySpec spec;
      spec.name = KindName(kind);
      spec.options = ctx.options;
      spec.eligible_devices = {static_cast<DeviceId>(d)};
      const Catalog* catalog = s.catalog.get();
      spec.make_graph = [catalog, kind](DeviceId device) {
        return BuildGraph(*catalog, kind, Params{}, device);
      };
      ADAMANT_ASSIGN_OR_RETURN(auto ticket, s.service->Submit(std::move(spec)));
      ADAMANT_RETURN_NOT_OK(ticket->Wait().status());
    }
  }

  run.clients.resize(c.clients);
  const size_t evictions_before = s.service->GetStats().cache.evictions;
  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(c.seconds));
  auto client_loop = [&](size_t client) {
    RequestStream stream(kinds, MixSeed(c.seed, client + 1));
    ClientLog& log = run.clients[client];
    for (size_t block = 0;; ++block) {
      if (block >= c.sim_blocks && Clock::now() >= window_end) break;
      const bool traced = c.trace && block % 2 == 1;
      for (Kind kind : stream.NextBlock()) {
        Outcome out;
        out.client = client;
        out.block = block;
        RunServedRequest(ctx, kind, stream.Draw(kind), traced, &out);
        out.end_ms = Ms(start, Clock::now());
        log.in_program_ms += out.in_program_ms;
        log.outcomes.push_back(std::move(out));
      }
    }
    log.window_ms = Ms(start, Clock::now());
  };
  std::vector<std::thread> threads;
  for (size_t client = 0; client < c.clients; ++client) {
    threads.emplace_back(client_loop, client);
  }
  for (std::thread& t : threads) t.join();
  run.window_ms = Ms(start, Clock::now());
  run.cpu_ms = ProcessCpuMs() - cpu_start;
  run.cache_evictions = static_cast<double>(
      s.service->GetStats().cache.evictions - evictions_before);

  // Reference checks, after the window: one reference per distinct text.
  const Clock::time_point check_start = Clock::now();
  std::map<std::string, TpchResult> refs;
  for (ClientLog& log : run.clients) {
    for (Outcome& o : log.outcomes) {
      ADAMANT_ASSIGN_OR_RETURN(o.text, SqlText(o.kind, o.params));
      if (!o.ok) continue;
      auto it = refs.find(o.text);
      if (it == refs.end()) {
        ADAMANT_ASSIGN_OR_RETURN(TpchResult ref,
                                 Reference(*s.catalog, o.kind, o.params));
        it = refs.emplace(o.text, std::move(ref)).first;
      }
      o.correct = o.result == it->second;
      if (!o.correct) o.error = "wrong result: differs from tpch reference";
    }
  }
  run.check_ms = Ms(check_start, Clock::now());
  return run;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Self time per span name, summed over traced requests, plus how much of
/// each request span its call spans cover. A span's self time is its
/// duration minus the union of the other spans of its request that it
/// contains.
struct SpanSummary {
  std::map<std::string, double> self_ms;
  double request_ms = 0;
  double covered_ms = 0;
  double min_coverage = 1;  // lowest share of one request its spans cover
};

double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, lo = 0, hi = -1;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> by_request;
  for (const Span& s : spans) by_request[s.request].push_back(&s);
  SpanSummary out;
  for (const auto& [request, list] : by_request) {
    for (const Span* s : list) {
      std::vector<std::pair<double, double>> inner;
      for (const Span* o : list) {
        if (o != s && o->start_ms >= s->start_ms && o->end_ms <= s->end_ms) {
          inner.emplace_back(o->start_ms, o->end_ms);
        }
      }
      const double covered = UnionLength(std::move(inner));
      const double duration = s->end_ms - s->start_ms;
      out.self_ms[s->name] += duration - covered;
      if (s->name == "request") {
        out.request_ms += duration;
        out.covered_ms += covered;
        if (duration > 0) {
          out.min_coverage = std::min(out.min_coverage, covered / duration);
        }
      }
    }
  }
  return out;
}

/// Spans as JSON lines; each carries its parent, the smallest span of the
/// same request that contains it.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  std::map<uint64_t, std::vector<size_t>> by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_request[spans[i].request].push_back(i);
  }
  for (const auto& [request, ids] : by_request) {
    for (size_t i : ids) {
      long parent = -1;
      double parent_len = 0;
      for (size_t j : ids) {
        if (j == i || spans[j].start_ms > spans[i].start_ms ||
            spans[j].end_ms < spans[i].end_ms) {
          continue;
        }
        const double len = spans[j].end_ms - spans[j].start_ms;
        if (parent < 0 || len < parent_len) {
          parent = static_cast<long>(j);
          parent_len = len;
        }
      }
      out << JsonObject()
                 .Add("id", static_cast<double>(i))
                 .Add("name", spans[i].name)
                 .Add("request", static_cast<double>(request))
                 .Add("parent", static_cast<double>(parent))
                 .Add("start_ms", spans[i].start_ms)
                 .Add("end_ms", spans[i].end_ms)
                 .str()
          << "\n";
    }
  }
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

/// Span names whose self time is a per-layer metric (name + "_ms").
/// QueryExecutor::Run's span is left out: runtime.run_ms is the executor's
/// own profile.run_ms on every path.
const char* const kSpanLayers[] = {
    "sql.parse",  "sql.bind",     "sql.plan",     "sql.extract",
    "plan.lower", "plan.fusion",  "plan.build",   "plan.extract",
    "service.submit"};

/// Counter-derived per-layer metrics, present (0 when off the path) on
/// every workload.
const char* const kCounterLayers[] = {
    "plan.fused_groups",    "runtime.run_ms",        "runtime.chunks",
    "runtime.h2d_mib",      "task.kernel_ms",        "task.scalar_ms",
    "task.parallel_ms",     "task.fused_ms",         "task.launches",
    "task.parallel_launches", "sim.kernel_body_ms",  "sim.transfer_wire_ms",
    "device.execute_calls", "service.queue_wait_ms", "service.run_ms",
    "service.overhead_ms"};

bool Completed(const Outcome& o) { return o.ok && o.correct; }

/// Per-layer metrics of a traced run: means per traced, completed request,
/// plus cache ratios, tracing overhead and span coverage. The set-up layers
/// come from run.py's fresh set-up processes.
void AddPerLayer(const WindowRun& run, const std::vector<const Outcome*>& all,
                 const std::vector<Span>& spans, JsonObject* metrics,
                 JsonObject* props) {
  std::set<uint64_t> traced_ids;
  Layers sum;
  for (const char* name : kCounterLayers) sum[name] = 0;
  double traced_ms = 0, untraced_ms = 0, hits = 0, misses = 0;
  size_t untraced_n = 0, completed = 0;
  std::map<std::string, std::vector<double>> kind_latency, kind_run_ms;
  for (const Outcome* o : all) {
    if (!Completed(*o)) continue;
    ++completed;
    hits += o->cache_hits;
    misses += o->cache_misses;
    if (!o->traced) {
      untraced_ms += o->latency_ms;
      ++untraced_n;
      continue;
    }
    traced_ids.insert(o->request);
    traced_ms += o->latency_ms;
    for (const auto& [name, value] : o->layers) sum[name] += value;
    kind_latency[KindName(o->kind)].push_back(o->latency_ms);
    kind_run_ms[KindName(o->kind)].push_back(o->layers.at("runtime.run_ms"));
  }
  std::vector<Span> kept;
  for (const Span& span : spans) {
    if (traced_ids.count(span.request) > 0) kept.push_back(span);
  }
  const SpanSummary summary = SummarizeSpans(kept);
  const double n = static_cast<double>(std::max<size_t>(traced_ids.size(), 1));
  for (const char* name : kSpanLayers) {
    auto it = summary.self_ms.find(name);
    metrics->Add(std::string(name) + "_ms",
                 it == summary.self_ms.end() ? 0.0 : it->second / n);
  }
  for (const auto& [name, value] : sum) metrics->Add(name, value / n);
  const double traced_mean = traced_ms / n;
  const double untraced_mean =
      untraced_ms / static_cast<double>(std::max<size_t>(untraced_n, 1));
  metrics->Add("service.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0)
      .Add("service.cache_evictions",
           run.cache_evictions /
               static_cast<double>(std::max<size_t>(completed, 1)))
      .Add("obs.trace_overhead",
           untraced_n == 0 ? 0 : traced_mean / untraced_mean - 1.0)
      .Add("bench.span_coverage", summary.request_ms > 0
                                      ? summary.covered_ms / summary.request_ms
                                      : 0);
  JsonObject per_kind;
  for (const auto& [kind, latency] : kind_latency) {
    per_kind.Raw(kind, JsonObject()
                           .Add("samples", static_cast<double>(latency.size()))
                           .Add("latency_p50_ms", Percentile(latency, 0.5))
                           .Add("latency_p90_ms", Percentile(latency, 0.9))
                           .Add("runtime.run_ms", Median(kind_run_ms[kind]))
                           .str());
  }
  props->Raw("per_kind", per_kind.str())
      .Add("traced_requests", static_cast<double>(traced_ids.size()))
      .Add("min_span_coverage", summary.min_coverage)
      .Add("spans", static_cast<double>(kept.size()));
}

int Main(int argc, char** argv) {
  Result<Config> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Config c = *parsed;
  const double steal_start = StealSeconds();

  Result<std::unique_ptr<Setup>> made = MakeSetup(c);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Setup> setup = std::move(*made);
  const std::string setup_json = JsonObject()
                                     .Add("total_s", setup->total_s)
                                     .Add("generate_s", setup->generate_s)
                                     .Add("plug_s", setup->plug_s)
                                     .Add("start_s", setup->start_s)
                                     .str();
  if (c.setup_only) {
    std::printf("%s\n", setup_json.c_str());
    return 0;
  }

  Tracer tracer(Clock::now());
  Tracer* tracer_ptr = c.trace ? &tracer : nullptr;
  Result<WindowRun> ran = c.mode == "adhoc" ? RunAdhoc(c, *setup, tracer_ptr)
                                            : RunServed(c, *setup, tracer_ptr);
  if (!ran.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ran.status().ToString().c_str());
    return 1;
  }
  const WindowRun& run = *ran;
  const double steal_end = StealSeconds();

  std::vector<const Outcome*> all;
  double client_ms = 0, in_program_ms = 0;
  for (const ClientLog& log : run.clients) {
    client_ms += log.window_ms;
    in_program_ms += log.in_program_ms;
    for (const Outcome& o : log.outcomes) all.push_back(&o);
  }
  size_t completed = 0, wrong = 0, sim_n = 0;
  double sim_sum = 0, hits = 0, misses = 0, chunks = 0;
  // The window is cut into kSlices equal slices by completion time;
  // throughput and median latency are medians over the slices, so a burst
  // of host CPU steal within one slice does not move them. p90 is taken
  // over the whole window, where it has at least ten samples beyond it.
  constexpr size_t kSlices = 5;
  const double slice_ms = run.window_ms / kSlices;
  std::vector<std::vector<double>> slice_latency(kSlices);
  std::vector<double> latencies;
  std::map<std::pair<std::string, std::string>, size_t> failures;
  for (const Outcome* o : all) {
    if (o->ok && !o->correct) ++wrong;
    if (!Completed(*o)) {
      ++failures[{KindName(o->kind), o->error}];
      continue;
    }
    ++completed;
    latencies.push_back(o->latency_ms);
    slice_latency[std::min(kSlices - 1,
                           static_cast<size_t>(o->end_ms / slice_ms))]
        .push_back(o->latency_ms);
    if (o->block < c.sim_blocks) {
      sim_sum += o->sim_us;
      ++sim_n;
    }
    hits += o->cache_hits;
    misses += o->cache_misses;
    chunks += o->chunks;
  }
  const double attempted = static_cast<double>(all.size());
  const double completed_d =
      static_cast<double>(std::max<size_t>(completed, 1));
  std::vector<double> slice_qps, slice_p50;
  size_t slice_min_samples = completed;
  for (const std::vector<double>& latency : slice_latency) {
    slice_qps.push_back(static_cast<double>(latency.size()) /
                        (slice_ms / 1e3));
    slice_p50.push_back(Percentile(latency, 0.5));
    slice_min_samples = std::min(slice_min_samples, latency.size());
  }

  const size_t workers = c.mode == "served" ? c.workers : 0;
  JsonObject props;
  props.Add("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Add("clients", static_cast<double>(c.clients))
      .Add("workers", static_cast<double>(workers))
      .Add("kernel_threads", static_cast<double>(c.kernel_threads))
      .Add("thread_budget",
           static_cast<double>(c.clients + workers +
                               static_cast<size_t>(c.kernel_threads)))
      .Add("steal_s", steal_start < 0 ? -1 : steal_end - steal_start)
      .Add("window_s", run.window_ms / 1e3)
      .Add("check_s", run.check_ms / 1e3)
      .Add("latency_samples", static_cast<double>(completed))
      .Add("slices", static_cast<double>(kSlices))
      .Add("slice_min_samples", static_cast<double>(slice_min_samples))
      .Add("sim_samples", static_cast<double>(sim_n))
      .Add("chunks_per_query", chunks / completed_d)
      .Add("cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  // A request repeats when an earlier measured request had the same query
  // and literals (served requests: the text the SQL builtin would have).
  std::set<std::string> texts;
  for (const Outcome* o : all) texts.insert(o->text);
  props.Add("repeated_text_share",
            1.0 - static_cast<double>(texts.size()) / attempted);
  if (c.mode == "served") {
    props.Add("cache_evictions", run.cache_evictions)
        .Add("working_set_mib", run.working_set_mib)
        .Add("cache_budget_mib", run.cache_budget_mib);
  }

  JsonObject metrics;
  metrics.Add("bench.harness_share",
              client_ms > 0 ? 1.0 - in_program_ms / client_ms : 0);
  if (!c.trace) {
    metrics.Add("throughput_qps", Median(slice_qps))
        .Add("latency_p50_ms", Median(slice_p50))
        .Add("latency_p90_ms", Percentile(latencies, 0.9))
        .Add("sim_ms_per_query",
             sim_n == 0 ? 0 : sim_sum / static_cast<double>(sim_n) / 1e3)
        .Add("cpu_ms_per_query", run.cpu_ms / completed_d)
        .Add("peak_rss_mib", PeakRssMib())
        .Add("completed_share", static_cast<double>(completed) / attempted);
  } else {
    const std::vector<Span> spans = tracer.Take();
    AddPerLayer(run, all, spans, &metrics, &props);
    if (!c.trace_out.empty()) {
      Status written = WriteSpans(c.trace_out, spans);
      if (!written.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
        return 1;
      }
    }
  }

  std::string failure_list;
  for (const auto& [key, count] : failures) {
    failure_list += (failure_list.empty() ? "" : ",") +
                    JsonObject()
                        .Add("kind", key.first)
                        .Add("message", key.second)
                        .Add("count", static_cast<double>(count))
                        .str();
  }
  // Probes outside the mix: an error is the known defect and is listed; a
  // wrong result is wrong output like any other.
  std::string probe_list;
  for (const Outcome& o : run.probes) {
    if (o.ok && !o.correct) ++wrong;
    probe_list += (probe_list.empty() ? "" : ",") +
                  JsonObject()
                      .Add("kind", KindName(o.kind))
                      .Add("segment", o.params.q3.segment)
                      .Add("date", Date(o.params.q3.date).ToString())
                      .Raw("passed", Completed(o) ? "true" : "false")
                      .Add("message", o.error)
                      .str();
  }
  std::printf("%s\n",
              JsonObject()
                  .Add("workload", c.workload)
                  .Raw("correct", wrong == 0 ? "true" : "false")
                  .Add("attempted", attempted)
                  .Add("failed", attempted - static_cast<double>(completed))
                  .Raw("failures", "[" + failure_list + "]")
                  .Raw("probes", "[" + probe_list + "]")
                  .Raw("properties", props.str())
                  .Raw("setup", setup_json)
                  .Raw("metrics", metrics.str())
                  .str()
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace adamant::perfbench

int main(int argc, char** argv) { return adamant::perfbench::Main(argc, argv); }
