// run_tpch — command-line front end for the whole stack: generate or load
// TPC-H data, pick a driver/setup/execution model, run queries, verify
// against the scalar references, and optionally dump a chrome trace.
// `run_tpch --help` prints the flag reference (kUsage below).

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adamant/adamant.h"
#include "tpch/tbl_schemas.h"

namespace adamant {
namespace {

constexpr char kUsage[] = R"(usage: run_tpch [flags]

  run_tpch --query=6 --sf=0.02 --nominal-sf=30 --driver=cuda_gpu
           --model=4phase --chunk=auto --verify --trace=/tmp/q6.json

Flags:
  --help            print this reference and exit
  --query=N         1, 3, 4, 5, 6, 10, 12, 14 or "all" (default: all)
  --sf=F            generated scale factor (default 0.01)
  --nominal-sf=F    emulated scale factor for the cost model (default: sf)
  --tbl-dir=PATH    load dbgen .tbl files instead of generating
  --driver=NAME     cuda_gpu | opencl_gpu | opencl_cpu | openmp_cpu
  --setup=1|2       hardware setup (Table II)
  --model=NAME      oaat | chunked | pipelined | 4phase | 4phase-pipelined
                    | device-parallel
  --chunk=N|auto    chunk size in nominal elements (default 2^25); auto is
                    single-query only
  --kernel-variant=auto|scalar|parallel
                    Task-layer kernel variant: auto = per-device policy
                    (CPU drivers run the worker-pool parallel variants
                    natively, GPU drivers scalar); scalar/parallel force
                    one variant. The chosen variant + thread count per
                    device is reported as a JSON line.
  --kernel-threads=N
                    thread budget for parallel variants (default: the
                    device policy count, 4 on CPU drivers)
  --fusion=off|on|auto
                    plan-level kernel fusion (src/plan/fusion.h): rewrite
                    fusable MAP/FILTER/MATERIALIZE/AGG chains into single
                    FUSED composites before execution. off = never, on =
                    every eligible group, auto (default) = only when the
                    device cost model predicts a win. Fused group count
                    and per-device fused launches appear on the JSON
                    report line; --explain shows the fused plan.
  --verify          compare results against the scalar reference
  --trace=PATH      write a chrome://tracing JSON of the real run: the
                    query is routed through a one-off QueryService so the
                    trace carries service admission/placement events plus
                    per-device pipeline/chunk/kernel/transfer spans
                    (docs/observability.md; validate with check_trace)
  --sim-trace=PATH  write the simulated-hardware timeline trace instead
                    (device clock, not wall clock)
  --profile         print the per-query phase profile as a JSON line
                    (time in transfer/compute/merge per device/pipeline)
  --metrics=PATH    after the run, dump the metrics registries to PATH as
                    Prometheus text (or JSON when PATH ends in .json)
  --explain         print the primitive graph with each primitive's kernel
                    variant and thread budget (plus, for SQL, the logical
                    plan and placement) and exit
  --explain-analyze run the query with per-operator stats collection and
                    print the measured OperatorStats tree next to the
                    planner's predictions: rows / selectivity / cost share
                    per primitive with q-error columns (Leis et al.), plus
                    kernel wall ms split by variant. Results stay
                    bit-identical to a plain run (--verify still checks).
                    Observed q-errors are recorded into the
                    adamant_plan_qerror_{selectivity,cost} histograms
                    (visible via --metrics). docs/observability.md.

SQL frontend (src/sql/, docs/sql.md):

  run_tpch --sql=q6 --verify          # run a built-in by name
  run_tpch --sql="SELECT ..." --explain
  run_tpch --sql-file=query.sql

  --sql=TEXT        run a SQL query: TEXT is a built-in name from
                    --list-queries, or literal SQL. With --explain,
                    prints the bound/annotated plan, pushed-down
                    predicates, costed join orders and the chosen device
                    placement instead of running. With --verify, the
                    result is cross-checked against the host interpreter.
  --sql-file=PATH   like --sql, reading the query text from PATH
  --list-queries    print every built-in query name + SQL text and exit
  --devices=LIST    (single-query mode) comma-separated device ids, e.g.
                    --devices=0,1: plugs that many instances of --driver
                    and runs the query device-parallel across them,
                    reporting the per-device chunk split and host merge
                    time as a JSON line. A bare count N means 0..N-1.
                    Driver names build a mixed-class set instead:
                    --devices=cuda_gpu,openmp_cpu plugs one device per
                    named class and splits the chunk range across the
                    heterogeneous pair by cost ratio.
  --split=LIST      (single-query mode, device-parallel) explicit split
                    shares, one per --devices entry (any positive scale,
                    e.g. --split=3,1); overrides the cost-model ratios.
  --no-rebalance    disable runtime chunk stealing between partitions
                    (the static split ratio is final)

Serve mode (the service layer of src/service/): replays a seeded mixed
Q3/Q4/Q6 workload through the QueryService scheduler, verifies every
result against a serial run, and prints aggregate ServiceStats as JSON:

  run_tpch --serve --clients=4 --queries=50 --seed=7 --devices=2

  --serve           enable serve mode
  --serve-sql       serve mode, but every query is submitted as SQL text
                    (QuerySpec::sql) — the q3/q4/q6 built-ins — and each
                    result is checked against a serial SQL run
  --clients=N       concurrent worker threads (default 4)
  --queries=N       workload size (default 50)
  --seed=N          workload RNG seed (default 7)
  --devices=N       instances of --driver to plug (default 2)
  --no-cache        disable the cross-query device column cache
  --history=PATH    after the workload drains, dump the service's bounded
                    query-history ring (slow queries keep their full
                    EXPLAIN ANALYZE operator tree) plus the selectivity
                    feedback cache as JSON to PATH (docs/serving.md)

Fault injection (serve mode; see docs/serving.md "Fault handling"):

  run_tpch --serve --queries=200 --fault-rate=0.007 --fault-seed=13

  --fault-rate=P    per-call transient fault probability on each serving
                    device's data-path interface calls (default 0 = off)
  --fault-seed=N    fault RNG seed; device i uses N + i (default 13)
  --sticky-device=I device I dies on its first Execute and stays dead
                    until quarantined (default -1 = none)
  --stall-ms=F      with --sticky-device: the device stalls every Execute
                    for F wall-clock ms instead of failing (a chronic
                    straggler — pair with --watchdog-factor)
  --sequential      submit one query at a time (wait for each before the
                    next): fixes the device call order so two same-seed
                    runs report identical failure counters

Deadlines and load shedding (serve mode; see docs/serving.md):

  run_tpch --serve --queries=100 --deadline-ms=200 --watchdog-factor=3

  --deadline-ms=F       per-query deadline; unmeetable queries are shed at
                        admission, lapsed ones evicted or cancelled
  --priority=normal|high  admission priority class of the workload
  --watchdog-factor=F   cancel runs exceeding F x predicted cost and
                        quarantine the device (0 = off)

Exit codes: 0 success; 1 hard failure; 2 bad arguments; 3 = some served
queries were shed / cancelled / failed — details on the machine-readable
"serve_errors:" JSON line.
)";

struct Options {
  /// --help: print kUsage and exit 0.
  bool help = false;
  std::string query = "all";
  double sf = 0.01;
  double nominal_sf = -1;
  std::string tbl_dir;
  std::string driver = "cuda_gpu";
  int setup = 1;
  std::string model = "chunked";
  /// Chunk size in nominal elements; chunk_auto = --chunk=auto.
  size_t chunk = size_t{1} << 25;
  bool chunk_auto = false;
  /// Task-layer kernel variant: auto (per-device policy) | scalar | parallel.
  std::string kernel_variant = "auto";
  /// Thread budget for parallel variants; 0 = per-device policy count.
  int kernel_threads = 0;
  /// Plan-level kernel fusion: off | on | auto (cost-gated).
  std::string fusion = "auto";
  bool verify = false;
  std::string trace_path;
  std::string sim_trace_path;
  bool profile = false;
  std::string metrics_path;
  bool explain = false;
  /// EXPLAIN ANALYZE: collect per-operator stats and print the predicted
  /// vs measured tree with q-error columns after the run.
  bool explain_analyze = false;
  /// Serve mode: dump the service query-history ring + feedback cache here.
  std::string history_path;
  /// SQL frontend: --sql (builtin name or literal text), --sql-file.
  std::string sql;
  std::string sql_file;
  bool list_queries = false;
  bool serve = false;
  /// Serve mode submits QuerySpec::sql text instead of make_graph.
  bool serve_sql = false;
  size_t clients = 4;
  size_t serve_queries = 50;
  unsigned seed = 7;
  size_t devices = 2;
  /// Single-query mode: parsed --devices list (kDeviceParallel partition
  /// set). Empty = the flag was absent or serve mode owns it.
  std::vector<DeviceId> device_set;
  /// Single-query mode: driver-class names from a non-numeric --devices
  /// list (mixed heterogeneous set); parallel to device_set when non-empty.
  std::vector<std::string> device_classes;
  /// --split: explicit per-device shares, parallel to device_set.
  std::vector<double> device_split;
  /// --no-rebalance: freeze the static split (no chunk stealing).
  bool no_rebalance = false;
  bool no_cache = false;
  double fault_rate = 0;
  uint64_t fault_seed = 13;
  int sticky_device = -1;
  bool sequential = false;
  /// Serve-mode SLO knobs (docs/serving.md "Deadlines, cancellation, and
  /// load shedding"): per-query deadline (0 = none), priority class, and
  /// watchdog factor (0 = watchdog off).
  double deadline_ms = 0;
  QueryPriority priority = QueryPriority::kNormal;
  double watchdog_factor = 0;
  /// With --sticky-device: the device *stalls* each Execute for this many
  /// wall-clock ms instead of failing — a chronic straggler for the
  /// watchdog, rather than a crasher for the retry path.
  double stall_ms = 0;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Checked numeric flag value: the whole text must parse as a finite T (so
// signs on unsigned flags, trailing junk, overflow, nan and inf are all
// rejected) no smaller than `min`; a bad value names its flag and exits 2.
template <typename T>
Result<T> ParseNumber(const char* flag, const std::string& value,
                      T min = std::numeric_limits<T>::lowest()) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc() || ptr != end ||
      !(out >= min && out <= std::numeric_limits<T>::max())) {
    return Status::InvalidArgument(std::string("--") + flag + ": '" + value +
                                   "' is not a valid value");
  }
  return out;
}

// Comma-separated list flag values, empty tokens skipped.
std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos <= value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string tok = value.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) tokens.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return tokens;
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "query", &value)) {
      options.query = value;
    } else if (ParseFlag(arg, "sf", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.sf,
                               ParseNumber<double>("sf", value, 1e-9));
    } else if (ParseFlag(arg, "nominal-sf", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.nominal_sf,
                               ParseNumber<double>("nominal-sf", value));
    } else if (ParseFlag(arg, "tbl-dir", &value)) {
      options.tbl_dir = value;
    } else if (ParseFlag(arg, "driver", &value)) {
      options.driver = value;
    } else if (ParseFlag(arg, "setup", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.setup, ParseNumber<int>("setup", value));
    } else if (ParseFlag(arg, "model", &value)) {
      // Knob strings are validated here, through the same parsers the
      // runtime's ValidateExecutionOptions uses, so a typo exits 2 with the
      // parser's message instead of failing mid-run.
      ADAMANT_RETURN_NOT_OK(ParseExecutionModel(value).status());
      options.model = value;
    } else if (ParseFlag(arg, "chunk", &value)) {
      options.chunk_auto = value == "auto";
      if (!options.chunk_auto) {
        ADAMANT_ASSIGN_OR_RETURN(options.chunk,
                                 ParseNumber<size_t>("chunk", value, 1));
      }
    } else if (ParseFlag(arg, "kernel-variant", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseKernelVariant(value).status());
      options.kernel_variant = value;
    } else if (ParseFlag(arg, "kernel-threads", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.kernel_threads,
                               ParseNumber<int>("kernel-threads", value, 0));
    } else if (ParseFlag(arg, "fusion", &value)) {
      ADAMANT_RETURN_NOT_OK(ParseFusionMode(value).status());
      options.fusion = value;
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace_path = value;
    } else if (ParseFlag(arg, "sim-trace", &value)) {
      options.sim_trace_path = value;
    } else if (ParseFlag(arg, "metrics", &value)) {
      options.metrics_path = value;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (ParseFlag(arg, "clients", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.clients,
                               ParseNumber<size_t>("clients", value, 1));
    } else if (ParseFlag(arg, "queries", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.serve_queries,
                               ParseNumber<size_t>("queries", value));
    } else if (ParseFlag(arg, "seed", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.seed,
                               ParseNumber<unsigned>("seed", value));
    } else if (ParseFlag(arg, "devices", &value)) {
      // Comma-separated ids select a device-parallel partition set; a bare
      // count keeps the serve-mode meaning (N instances) and, in
      // single-query mode, expands to ids 0..N-1. Driver-class names
      // (--devices=cuda_gpu,openmp_cpu) plug a mixed heterogeneous set.
      if (value.find(',') != std::string::npos ||
          (!value.empty() && !std::isdigit(static_cast<unsigned char>(
                                 value.front())))) {
        const std::vector<std::string> tokens = SplitList(value);
        const bool named =
            !tokens.empty() &&
            !std::isdigit(static_cast<unsigned char>(tokens.front().front()));
        for (size_t t = 0; t < tokens.size(); ++t) {
          if (named) {
            options.device_classes.push_back(tokens[t]);
            options.device_set.push_back(static_cast<DeviceId>(t));
          } else {
            ADAMANT_ASSIGN_OR_RETURN(
                DeviceId id, ParseNumber<DeviceId>("devices", tokens[t], 0));
            options.device_set.push_back(id);
          }
        }
        options.devices = options.device_set.size();
      } else {
        ADAMANT_ASSIGN_OR_RETURN(options.devices,
                                 ParseNumber<size_t>("devices", value));
        for (size_t d = 0; d < options.devices; ++d) {
          options.device_set.push_back(static_cast<DeviceId>(d));
        }
      }
    } else if (ParseFlag(arg, "split", &value)) {
      for (const std::string& tok : SplitList(value)) {
        ADAMANT_ASSIGN_OR_RETURN(double share,
                                 ParseNumber<double>("split", tok));
        options.device_split.push_back(share);
      }
    } else if (arg == "--no-rebalance") {
      options.no_rebalance = true;
    } else if (ParseFlag(arg, "fault-rate", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.fault_rate,
                               ParseNumber<double>("fault-rate", value, 0.0));
    } else if (ParseFlag(arg, "fault-seed", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.fault_seed,
                               ParseNumber<uint64_t>("fault-seed", value));
    } else if (ParseFlag(arg, "sticky-device", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.sticky_device,
                               ParseNumber<int>("sticky-device", value));
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.deadline_ms,
                               ParseNumber<double>("deadline-ms", value, 0.0));
    } else if (ParseFlag(arg, "priority", &value)) {
      if (value == "high") {
        options.priority = QueryPriority::kHigh;
      } else if (value == "normal") {
        options.priority = QueryPriority::kNormal;
      } else {
        return Status::InvalidArgument("--priority must be normal|high");
      }
    } else if (ParseFlag(arg, "watchdog-factor", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(
          options.watchdog_factor,
          ParseNumber<double>("watchdog-factor", value, 0.0));
    } else if (ParseFlag(arg, "stall-ms", &value)) {
      ADAMANT_ASSIGN_OR_RETURN(options.stall_ms,
                               ParseNumber<double>("stall-ms", value, 0.0));
    } else if (arg == "--sequential") {
      options.sequential = true;
    } else if (ParseFlag(arg, "sql", &value)) {
      options.sql = value;
    } else if (ParseFlag(arg, "sql-file", &value)) {
      options.sql_file = value;
    } else if (arg == "--list-queries") {
      options.list_queries = true;
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg == "--serve-sql") {
      options.serve = true;
      options.serve_sql = true;
    } else if (arg == "--no-cache") {
      options.no_cache = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--explain-analyze") {
      options.explain_analyze = true;
    } else if (ParseFlag(arg, "history", &value)) {
      options.history_path = value;
    } else if (arg == "--help") {
      options.help = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (options.serve && options.chunk_auto) {
    return Status::InvalidArgument("--chunk=auto is single-query only");
  }
  if (options.nominal_sf <= 0) options.nominal_sf = options.sf;
  return options;
}

Result<sim::DriverKind> DriverFromName(const std::string& name) {
  const std::map<std::string, sim::DriverKind> kDrivers = {
      {"cuda_gpu", sim::DriverKind::kCudaGpu},
      {"opencl_gpu", sim::DriverKind::kOpenClGpu},
      {"opencl_cpu", sim::DriverKind::kOpenClCpu},
      {"openmp_cpu", sim::DriverKind::kOpenMpCpu},
  };
  auto it = kDrivers.find(name);
  if (it == kDrivers.end()) {
    return Status::InvalidArgument("unknown driver '" + name + "'");
  }
  return it->second;
}

// Options → ExecutionOptions for the execution knobs that run_tpch forwards
// verbatim. The strings were validated at ParseArgs time (exit 2 on typos),
// so the Parse* calls here cannot fail.
ExecutionOptions MakeExecOptions(const Options& options,
                                 ExecutionModelKind model) {
  ExecutionOptions exec_options;
  exec_options.model = model;
  if (!options.device_set.empty()) {
    exec_options.model = ExecutionModelKind::kDeviceParallel;
    exec_options.device_set = options.device_set;
    exec_options.device_split = options.device_split;
  }
  exec_options.split_rebalance = !options.no_rebalance;
  exec_options.collect_profile = options.profile;
  exec_options.collect_operator_stats = options.explain_analyze;
  exec_options.kernel_variant = *ParseKernelVariant(options.kernel_variant);
  exec_options.kernel_threads = options.kernel_threads;
  exec_options.fusion = *ParseFusionMode(options.fusion);
  return exec_options;
}

// --explain: one line per primitive with the Task-layer kernel variant its
// launches resolve to on the owning device (exec::PriceGraph asks the
// device, so kernels without a parallel binding show scalar) and its thread
// budget. Fused composites carry their recipe in the label.
Status PrintExplain(const std::string& title, const plan::PlanBundle& bundle,
                    DeviceManager* manager,
                    const ExecutionOptions& exec_options,
                    const plan::FusionReport& fusion) {
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           bundle.graph->SplitPipelines());
  ADAMANT_ASSIGN_OR_RETURN(
      exec::GraphPrice price,
      exec::PriceGraph(*bundle.graph, pipelines, exec_options, manager));
  std::printf("%s primitive graph (fusion %s: %d group(s), %d primitive(s) "
              "fused):\n",
              title.c_str(), FusionModeName(exec_options.fusion),
              fusion.groups, fusion.nodes_fused);
  for (const GraphNode& node : bundle.graph->nodes()) {
    const KernelVariantChoice choice =
        price.nodes[static_cast<size_t>(node.id)].choice;
    const bool fused_node = node.kind == PrimitiveKind::kFused ||
                            node.kind == PrimitiveKind::kFusedAgg;
    const std::string variant =
        std::string(fused_node ? "fused/" : "") +
        KernelVariantName(choice.variant);
    std::printf("  [%2d] %-22s %-36s variant=%s threads=%d\n", node.id,
                PrimitiveKindName(node.kind), node.label.c_str(),
                variant.c_str(), choice.threads);
  }
  return Status::OK();
}

// --explain-analyze: the measured OperatorStats tree next to the planner's
// predictions, one row per lowered primitive in node-id order. Selectivity
// columns apply only to the buffer-sizing kinds (FILTER_POSITION /
// MATERIALIZE / HASH_PROBE / FUSED); cost q-errors compare share-of-total
// (predicted sim-us vs measured kernel wall ms), so no unit calibration is
// needed. The summary line is what tests and the docs walkthrough grep.
void PrintExplainAnalyze(const std::string& title,
                         const std::vector<obs::OperatorStats>& operators) {
  if (operators.empty()) {
    std::printf("%s explain analyze: no operator stats collected\n",
                title.c_str());
    return;
  }
  double pred_total = 0;
  double actual_total = 0;
  for (const obs::OperatorStats& op : operators) {
    pred_total += op.predicted_cost_us;
    actual_total += op.kernel_ms;
  }
  std::printf("%s explain analyze (rows/selectivity predicted->actual, "
              "cost%% = share of total, q = max(p/a, a/p)):\n",
              title.c_str());
  std::printf("  %4s %3s %-20s %-30s %22s %15s %7s %13s %7s %6s %9s\n",
              "pipe", "id", "kind", "label", "rows p->a", "sel p->a",
              "q_sel", "cost% p->a", "q_cost", "launch", "kernel_ms");
  double sel_q_sum = 0, sel_q_max = 0;
  size_t sel_n = 0;
  double cost_q_sum = 0, cost_q_max = 0;
  size_t cost_n = 0;
  for (const obs::OperatorStats& op : operators) {
    char rows[64];
    std::snprintf(rows, sizeof(rows), "%.0f->%llu", op.predicted_rows_out,
                  static_cast<unsigned long long>(op.rows_out));
    char sel[48] = "-";
    char q_sel[32] = "-";
    if (op.selective && op.rows_in > 0) {
      const double q = obs::QError(op.predicted_selectivity,
                                   op.ActualSelectivity());
      std::snprintf(sel, sizeof(sel), "%.4f->%.4f", op.predicted_selectivity,
                    op.ActualSelectivity());
      std::snprintf(q_sel, sizeof(q_sel), "%.2f", q);
      sel_q_sum += q;
      sel_q_max = std::max(sel_q_max, q);
      ++sel_n;
    }
    char cost[48] = "-";
    char q_cost[32] = "-";
    if (pred_total > 0 && actual_total > 0 && op.launches > 0) {
      const double pred_share = op.predicted_cost_us / pred_total;
      const double actual_share = op.kernel_ms / actual_total;
      const double q = obs::QError(pred_share, actual_share);
      std::snprintf(cost, sizeof(cost), "%4.1f->%4.1f", pred_share * 100,
                    actual_share * 100);
      std::snprintf(q_cost, sizeof(q_cost), "%.2f", q);
      cost_q_sum += q;
      cost_q_max = std::max(cost_q_max, q);
      ++cost_n;
    }
    std::printf("  %4d %3d %-20s %-30s %22s %15s %7s %13s %7s %6zu %9.3f\n",
                op.pipeline, op.node_id, op.kind.c_str(), op.label.c_str(),
                rows, sel, q_sel, cost, q_cost, op.launches, op.kernel_ms);
  }
  std::printf("  qerror: selectivity mean %.2f max %.2f (%zu ops), "
              "cost-share mean %.2f max %.2f (%zu ops)\n",
              sel_n > 0 ? sel_q_sum / static_cast<double>(sel_n) : 1.0,
              sel_q_max, sel_n,
              cost_n > 0 ? cost_q_sum / static_cast<double>(cost_n) : 1.0,
              cost_q_max, cost_n);
}

// --explain (device-parallel): the chosen device set with per-device split
// ratios and the predicted per-partition cost (share x the graph priced on
// that device), next to the primitive-graph / placement output.
void PrintSplitExplain(DeviceManager* manager, const PrimitiveGraph& graph,
                       const ExecutionOptions& exec_options) {
  if (exec_options.model != ExecutionModelKind::kDeviceParallel ||
      exec_options.device_set.size() < 2) {
    return;
  }
  auto prices = exec::PriceDevices(graph, exec_options, manager,
                                   exec_options.device_set);
  if (!prices.ok()) return;
  const std::vector<double> weights =
      exec_options.device_split.empty()
          ? exec::ThroughputWeights(*prices)
          : exec::NormalizeSplit(exec_options.device_split,
                                 exec_options.device_set.size());
  std::printf("split:");
  for (size_t i = 0; i < exec_options.device_set.size(); ++i) {
    std::printf(" %s=%.3f (predicted %.3f ms/partition)",
                manager->device(exec_options.device_set[i])->name().c_str(),
                weights[i],
                sim::MsFromUs((*prices)[i].cost_us * weights[i]));
  }
  std::printf(" rebalance=%s\n", exec_options.split_rebalance ? "on" : "off");
}

void PrintStats(const QueryExecution& exec, DeviceId device) {
  const QueryStats& stats = exec.stats;
  std::printf("    elapsed %.3f ms | kernels %.3f ms | wire %.3f ms | "
              "%zu chunks | H2D %zu B | D2H %zu B\n",
              sim::MsFromUs(stats.elapsed_us),
              sim::MsFromUs(stats.kernel_body_us),
              sim::MsFromUs(stats.transfer_wire_us), stats.chunks,
              stats.bytes_h2d, stats.bytes_d2h);
  const DeviceRunStats& dev = stats.devices[static_cast<size_t>(device)];
  std::printf("    per kernel:");
  for (const auto& [name, us] : dev.kernel_body_by_name) {
    std::printf(" %s=%.2fms", name.c_str(), sim::MsFromUs(us));
  }
  std::printf("\n");
}

// Dumps the process-wide registry (transfer/cache/kernel/fault counters)
// plus, when a service ran, its per-service registry. Prometheus text
// exposition by default; a .json suffix selects JSON.
Status DumpMetrics(const std::string& path, const QueryService* service) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::string text;
  if (json) {
    text = "{\"global\":" + obs::GlobalMetrics().ToJson();
    if (service != nullptr) {
      text += ",\"service\":" + service->metrics().ToJson();
    }
    text += "}";
  } else {
    text = obs::GlobalMetrics().ToPrometheusText();
    if (service != nullptr) text += service->metrics().ToPrometheusText();
  }
  std::ofstream out(path);
  out << text;
  if (!out.good()) {
    return Status::IOError("cannot write metrics to " + path);
  }
  std::printf("metrics written to %s (%s)\n", path.c_str(),
              json ? "JSON" : "Prometheus text");
  return Status::OK();
}

Result<plan::PlanBundle> BuildBundle(const std::string& query,
                                     const Catalog& catalog, DeviceId device) {
  if (query == "1") return plan::BuildQ1(catalog, {}, device);
  if (query == "3") return plan::BuildQ3(catalog, {}, device);
  if (query == "4") return plan::BuildQ4(catalog, {}, device);
  if (query == "5") return plan::BuildQ5(catalog, {}, device);
  if (query == "6") return plan::BuildQ6(catalog, {}, device);
  if (query == "10") return plan::BuildQ10(catalog, {}, device);
  if (query == "12") return plan::BuildQ12(catalog, {}, device);
  if (query == "14") return plan::BuildQ14(catalog, {}, device);
  return Status::InvalidArgument("unknown query '" + query + "'");
}

Status RunQuery(const std::string& query, const Catalog& catalog,
                DeviceManager* manager, DeviceId device,
                const Options& options, QueryService* service) {
  ADAMANT_ASSIGN_OR_RETURN(ExecutionModelKind model,
                           ParseExecutionModel(options.model));

  ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                           BuildBundle(query, catalog, device));

  ExecutionOptions exec_options = MakeExecOptions(options, model);

  // Fusion is a plan-level rewrite: it runs here, between lowering and
  // execution, so --explain, the chunk tuner, and the run itself all see
  // the same (fused) graph.
  ADAMANT_ASSIGN_OR_RETURN(plan::FusionReport fusion,
                           plan::ApplyFusion(&bundle, exec_options, manager));

  exec_options.chunk_elems = options.chunk;
  if (options.chunk_auto) {
    ADAMANT_ASSIGN_OR_RETURN(
        exec_options.chunk_elems,
        SuggestChunkElems(*manager->device(device), *bundle.graph));
  }

  if (options.explain) {
    ADAMANT_RETURN_NOT_OK(
        PrintExplain("Q" + query, bundle, manager, exec_options, fusion));
    PrintSplitExplain(manager, *bundle.graph, exec_options);
    return Status::OK();
  }

  // With a service attached (--trace), the query goes through Submit so the
  // trace carries the admission/placement instants alongside the runtime
  // spans; node ids are deterministic per builder — make_graph applies the
  // same fusion pass — so the local bundle still extracts the serviced
  // execution's results.
  Result<QueryExecution> direct = Status::Internal("query did not run");
  std::shared_ptr<QueryTicket> ticket;
  if (service != nullptr) {
    QuerySpec spec;
    spec.name = "Q" + query;
    spec.options = exec_options;
    if (exec_options.model == ExecutionModelKind::kDeviceParallel) {
      spec.parallel_devices = exec_options.device_set.size();
    }
    const Catalog* cat = &catalog;
    const std::string q = query;
    const ExecutionOptions opts = exec_options;
    spec.make_graph = [cat, q, opts, manager](
                          DeviceId dev) -> Result<std::unique_ptr<PrimitiveGraph>> {
      ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle b, BuildBundle(q, *cat, dev));
      ADAMANT_RETURN_NOT_OK(plan::ApplyFusion(&b, opts, manager).status());
      return std::move(b.graph);
    };
    ADAMANT_ASSIGN_OR_RETURN(ticket, service->Submit(std::move(spec)));
    ADAMANT_RETURN_NOT_OK(ticket->Wait().status());
  } else {
    QueryExecutor executor(manager);
    direct = executor.Run(bundle.graph.get(), exec_options);
    ADAMANT_RETURN_NOT_OK(direct.status());
  }
  const QueryExecution& exec = service != nullptr ? *ticket->Wait() : *direct;
  const DeviceId report_device =
      service != nullptr ? ticket->placed_device() : device;

  std::printf("Q%-3s on %s (%s, chunk %zu):\n", query.c_str(),
              manager->device(report_device)->name().c_str(),
              ExecutionModelName(exec_options.model), exec_options.chunk_elems);
  PrintStats(exec, report_device);
  {
    // Self-describing benchmark output: which Task-layer kernel variant each
    // used device resolved, its thread budget, and how many launches
    // actually dispatched a parallel or fused fn. Empty when the run went
    // through a shared-device service lease (per-device snapshots are
    // skipped there).
    std::string variants_json;
    for (const DeviceRunStats& ds : exec.stats.devices) {
      if (ds.execute_calls == 0 || ds.kernel_variant.empty()) continue;
      if (!variants_json.empty()) variants_json += ",";
      variants_json += "\"" + ds.name + "\":{\"variant\":\"" +
                       ds.kernel_variant +
                       "\",\"threads\":" + std::to_string(ds.kernel_threads) +
                       ",\"parallel_launches\":" +
                       std::to_string(ds.parallel_launches) +
                       ",\"fused_launches\":" +
                       std::to_string(ds.fused_launches) + "}";
    }
    if (!variants_json.empty()) {
      std::printf("    {\"query\":\"%s\",\"fused_groups\":%d,"
                  "\"kernel_variants\":{%s}}\n",
                  query.c_str(), fusion.groups, variants_json.c_str());
    }
  }
  if (options.profile) {
    std::printf("    profile: %s\n", exec.stats.profile.ToJson().c_str());
  }
  if (options.explain_analyze) {
    PrintExplainAnalyze("Q" + query, exec.stats.profile.operators);
    obs::RecordPlanQErrors(&obs::GlobalMetrics(), "Q" + query,
                           exec.stats.profile.operators);
  }
  if (exec_options.model == ExecutionModelKind::kDeviceParallel) {
    // Machine-readable split report: which device ran how many chunks, the
    // planned split ratio per device, how many chunks each partition stole
    // at runtime, and the host time spent merging breaker containers.
    std::string chunks_json;
    for (const auto& [dev_id, count] : exec.stats.chunks_by_device) {
      if (!chunks_json.empty()) chunks_json += ",";
      chunks_json += "\"" + std::to_string(dev_id) +
                     "\":" + std::to_string(count);
    }
    std::string split_json;
    for (const auto& [dev_id, ratio] : exec.stats.split_ratio_by_device) {
      if (!split_json.empty()) split_json += ",";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"%d\":%.4f", dev_id, ratio);
      split_json += buf;
    }
    std::string stolen_json;
    for (const auto& [dev_id, count] : exec.stats.chunks_stolen_by_device) {
      if (!stolen_json.empty()) stolen_json += ",";
      stolen_json += "\"" + std::to_string(dev_id) +
                     "\":" + std::to_string(count);
    }
    std::printf("    {\"query\":\"%s\",\"model\":\"device-parallel\","
                "\"devices\":%zu,\"chunks_by_device\":{%s},"
                "\"split_ratio\":{%s},\"chunks_stolen\":{%s},"
                "\"rebalance\":%s,"
                "\"merge_host_ms\":%.4f,\"elapsed_ms\":%.3f}\n",
                query.c_str(), options.device_set.size(),
                chunks_json.c_str(), split_json.c_str(), stolen_json.c_str(),
                exec_options.split_rebalance ? "true" : "false",
                exec.stats.merge_host_ms,
                sim::MsFromUs(exec.stats.elapsed_us));
  }

  // Results + optional verification.
  auto verdict = [&](bool match) {
    std::printf("    verification: %s\n", match ? "MATCH" : "MISMATCH");
    return match ? Status::OK()
                 : Status::ExecutionError("Q" + query + " mismatch");
  };
  if (query == "6") {
    ADAMANT_ASSIGN_OR_RETURN(int64_t revenue, plan::ExtractQ6(bundle, exec));
    std::printf("    revenue = %.2f\n", MoneyToDouble(revenue));
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(int64_t want, tpch::Q6Reference(catalog, {}));
      return verdict(revenue == want);
    }
  } else if (query == "3") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows,
                             plan::ExtractQ3(bundle, exec, catalog, {}));
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      std::printf("    order %d: revenue %.2f\n", rows[i].orderkey,
                  MoneyToDouble(rows[i].revenue));
    }
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q3Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "4") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ4(bundle, exec));
    for (const auto& row : rows) {
      std::printf("    priority %d: %lld orders\n", row.priority,
                  static_cast<long long>(row.order_count));
    }
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q4Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "5") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ5(bundle, exec, catalog));
    for (const auto& row : rows) {
      std::printf("    %-16s revenue %.2f\n", row.nation.c_str(),
                  MoneyToDouble(row.revenue));
    }
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q5Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "1") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ1(bundle, exec));
    std::printf("    %zu (returnflag, linestatus) groups\n", rows.size());
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q1Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "10") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ10(bundle, exec, {}));
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      std::printf("    customer %d: lost revenue %.2f\n", rows[i].custkey,
                  MoneyToDouble(rows[i].revenue));
    }
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q10Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "12") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ12(bundle, exec));
    for (const auto& row : rows) {
      std::printf("    shipmode %d: high %lld, low %lld\n", row.shipmode,
                  static_cast<long long>(row.high_line_count),
                  static_cast<long long>(row.low_line_count));
    }
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q12Reference(catalog, {}));
      return verdict(rows == want);
    }
  } else if (query == "14") {
    ADAMANT_ASSIGN_OR_RETURN(auto result, plan::ExtractQ14(bundle, exec));
    std::printf("    promo revenue = %.2f%%\n", result.promo_pct());
    if (options.verify) {
      ADAMANT_ASSIGN_OR_RETURN(auto want, tpch::Q14Reference(catalog, {}));
      return verdict(result == want);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SQL mode: compile --sql / --sql-file text through the SQL frontend and run
// the resulting logical plan through the same lowering/executor path the
// hand-built plans use.
// ---------------------------------------------------------------------------

// Resolves --sql / --sql-file into query text + a display label. A --sql
// value naming a built-in (see --list-queries) expands to its SQL.
Result<std::pair<std::string, std::string>> ResolveSqlText(
    const Options& options) {
  if (!options.sql_file.empty()) {
    std::ifstream in(options.sql_file);
    if (!in.good()) {
      return Status::IOError("cannot read --sql-file=" + options.sql_file);
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return std::make_pair(std::move(text), options.sql_file);
  }
  if (const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(options.sql)) {
    return std::make_pair(builtin->sql, builtin->name);
  }
  return std::make_pair(options.sql, std::string("sql"));
}

Status RunSql(const Catalog& catalog, DeviceManager* manager, DeviceId device,
              const Options& options, QueryService* service) {
  ADAMANT_ASSIGN_OR_RETURN(ExecutionModelKind model,
                           ParseExecutionModel(options.model));
  ADAMANT_ASSIGN_OR_RETURN(auto resolved, ResolveSqlText(options));
  const std::string& sql_text = resolved.first;
  const std::string& label = resolved.second;

  sql::PlannerOptions planner_options;
  planner_options.manager = manager;
  planner_options.cost_device = device;
  ADAMANT_ASSIGN_OR_RETURN(sql::CompiledQuery compiled,
                           sql::Compile(sql_text, catalog, planner_options));
  ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                           plan::LowerPlan(*compiled.plan, catalog, device));

  ExecutionOptions exec_options = MakeExecOptions(options, model);

  // A service run (--trace) lowers the SQL text itself, without the fusion
  // pass — fusing the local bundle would desync its node ids from the
  // serviced execution it extracts results from. Direct runs (and
  // --explain, which never executes the local bundle) fuse here.
  plan::FusionReport fusion;
  if (service == nullptr || options.explain) {
    ADAMANT_ASSIGN_OR_RETURN(
        fusion, plan::ApplyFusion(&bundle, exec_options, manager));
  }

  exec_options.chunk_elems = options.chunk;
  if (options.chunk_auto) {
    ADAMANT_ASSIGN_OR_RETURN(
        exec_options.chunk_elems,
        SuggestChunkElems(*manager->device(device), *bundle.graph));
  }

  if (options.explain) {
    std::printf("%s: %s\n%s", label.c_str(), sql_text.c_str(),
                sql::ExplainCompiled(compiled).c_str());
    ADAMANT_RETURN_NOT_OK(
        PrintExplain(label, bundle, manager, exec_options, fusion));
    ADAMANT_ASSIGN_OR_RETURN(
        plan::PlacementSearchResult placement,
        plan::SearchPlacements(*compiled.plan, catalog, manager,
                               exec_options));
    std::printf("placement: %s (simulated %.3f ms, %zu candidates)\n",
                placement.best_name.c_str(),
                sim::MsFromUs(placement.best_elapsed_us),
                placement.evaluated.size());
    if (!placement.best_device_set.empty()) {
      // The winner is a device-parallel split: the chosen set with each
      // device's split ratio and predicted per-partition cost.
      std::printf("split:");
      for (size_t i = 0; i < placement.best_device_set.size(); ++i) {
        std::printf(" %s=%.3f",
                    manager->device(placement.best_device_set[i])
                        ->name()
                        .c_str(),
                    placement.best_split[i]);
        if (i < placement.best_partition_cost_us.size()) {
          std::printf(" (predicted %.3f ms/partition)",
                      sim::MsFromUs(placement.best_partition_cost_us[i]));
        }
      }
      std::printf("\n");
    }
    PrintSplitExplain(manager, *bundle.graph, exec_options);
    return Status::OK();
  }

  // With a service attached (--trace), the query goes through Submit as SQL
  // text; lowering is deterministic, so the local bundle's named sinks still
  // extract the serviced execution's results.
  Result<QueryExecution> direct = Status::Internal("query did not run");
  std::shared_ptr<QueryTicket> ticket;
  if (service != nullptr) {
    QuerySpec spec;
    spec.name = label;
    spec.options = exec_options;
    spec.sql = sql_text;
    spec.sql_catalog = &catalog;
    ADAMANT_ASSIGN_OR_RETURN(ticket, service->Submit(std::move(spec)));
    ADAMANT_RETURN_NOT_OK(ticket->Wait().status());
  } else {
    QueryExecutor executor(manager);
    direct = executor.Run(bundle.graph.get(), exec_options);
    ADAMANT_RETURN_NOT_OK(direct.status());
  }
  const QueryExecution& exec = service != nullptr ? *ticket->Wait() : *direct;
  const DeviceId report_device =
      service != nullptr ? ticket->placed_device() : device;

  std::printf("%s on %s (%s, chunk %zu):\n", label.c_str(),
              manager->device(report_device)->name().c_str(),
              ExecutionModelName(exec_options.model),
              exec_options.chunk_elems);
  PrintStats(exec, report_device);
  if (options.profile) {
    std::printf("    profile: %s\n", exec.stats.profile.ToJson().c_str());
  }
  if (options.explain_analyze) {
    PrintExplainAnalyze(label, exec.stats.profile.operators);
    obs::RecordPlanQErrors(&obs::GlobalMetrics(), label,
                           exec.stats.profile.operators);
  }

  ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet results,
                           sql::ExtractResults(compiled, bundle, exec));
  std::printf("%s", sql::FormatResultSet(results, compiled, catalog).c_str());
  if (options.verify) {
    ADAMANT_RETURN_NOT_OK(
        sql::VerifyAgainstInterpreter(compiled, bundle, exec, catalog));
    std::printf("    verification: MATCH (host interpreter)\n");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serve mode: a seeded Q3/Q4/Q6 mix through the QueryService, each result
// checked bit-for-bit against a serial single-query run.
// ---------------------------------------------------------------------------

struct ServeReference {
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  int64_t q6 = 0;
  // Template bundles: node ids are deterministic per builder, so one bundle
  // per query kind serves result extraction for every served execution.
  plan::PlanBundle q3_bundle;
  plan::PlanBundle q4_bundle;
  plan::PlanBundle q6_bundle;
};

Result<ServeReference> BuildServeReference(const Catalog& catalog,
                                           DeviceManager* manager,
                                           const ExecutionOptions& exec_options) {
  ServeReference ref;
  QueryExecutor executor(manager);
  ADAMANT_ASSIGN_OR_RETURN(ref.q3_bundle, plan::BuildQ3(catalog, {}, 0));
  ADAMANT_ASSIGN_OR_RETURN(ref.q4_bundle, plan::BuildQ4(catalog, {}, 0));
  ADAMANT_ASSIGN_OR_RETURN(ref.q6_bundle, plan::BuildQ6(catalog, {}, 0));
  {
    ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                             plan::BuildQ3(catalog, {}, 0));
    ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                             executor.Run(bundle.graph.get(), exec_options));
    ADAMANT_ASSIGN_OR_RETURN(ref.q3,
                             plan::ExtractQ3(bundle, exec, catalog, {}));
  }
  {
    ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                             plan::BuildQ4(catalog, {}, 0));
    ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                             executor.Run(bundle.graph.get(), exec_options));
    ADAMANT_ASSIGN_OR_RETURN(ref.q4, plan::ExtractQ4(bundle, exec));
  }
  {
    ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                             plan::BuildQ6(catalog, {}, 0));
    ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                             executor.Run(bundle.graph.get(), exec_options));
    ADAMANT_ASSIGN_OR_RETURN(ref.q6, plan::ExtractQ6(bundle, exec));
  }
  return ref;
}

/// One served query that did not produce a usable result, for the
/// machine-readable `serve_errors:` record (exit code 3).
struct ServeErrorRecord {
  size_t index;
  std::string query;
  const char* outcome;  // "shed" | "rejected" | "cancelled" | "failed"
  Status status;
};

std::string ServeErrorsJson(const std::vector<ServeErrorRecord>& errors) {
  std::string json =
      "{\"count\":" + std::to_string(errors.size()) + ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    const ServeErrorRecord& e = errors[i];
    if (i > 0) json += ",";
    json += "{\"index\":" + std::to_string(e.index) + ",\"query\":\"" +
            obs::JsonEscape(e.query) + "\",\"outcome\":\"" + e.outcome +
            "\",\"status\":\"" + obs::JsonEscape(e.status.ToString()) + "\"}";
  }
  return json + "]}";
}

Status Serve(const Options& options, const std::shared_ptr<Catalog>& catalog,
             int* exit_code) {
  ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind kind,
                           DriverFromName(options.driver));
  ADAMANT_ASSIGN_OR_RETURN(ExecutionModelKind model,
                           ParseExecutionModel(options.model));
  const sim::HardwareSetup setup = options.setup == 2
                                       ? sim::HardwareSetup::kSetup2
                                       : sim::HardwareSetup::kSetup1;
  const bool faults = options.fault_rate > 0 || options.sticky_device >= 0;
  DeviceManager manager(setup);
  manager.SetDataScale(options.nominal_sf / options.sf);
  const size_t num_devices = std::max<size_t>(options.devices, 1);
  for (size_t i = 0; i < num_devices; ++i) {
    const std::string name = options.driver + "." + std::to_string(i);
    DeviceId device;
    if (faults) {
      FaultPlan plan = FaultPlan::TransientRate(
          options.fault_rate, options.fault_seed + i);
      if (static_cast<int>(i) == options.sticky_device) {
        // --stall-ms turns the sticky device into a chronic straggler
        // (every Execute sleeps but succeeds) instead of a crasher; only a
        // deadline or the watchdog ends runs placed on it.
        FaultPlan sticky =
            options.stall_ms > 0
                ? FaultPlan::StickyStall(InterfaceCall::kExecute,
                                         options.stall_ms)
                : FaultPlan::Sticky(InterfaceCall::kExecute);
        plan.specs.insert(plan.specs.end(), sticky.specs.begin(),
                          sticky.specs.end());
      }
      ADAMANT_ASSIGN_OR_RETURN(device,
                               manager.AddDriver(kind, name, std::move(plan)));
    } else {
      ADAMANT_ASSIGN_OR_RETURN(device, manager.AddDriver(kind, name));
    }
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
  }

  ExecutionOptions exec_options;
  exec_options.model = model;
  exec_options.chunk_elems = options.chunk;

  std::printf("serve: %zu devices (%s), %zu clients, %zu queries, seed %u, "
              "cache %s\n",
              num_devices, options.driver.c_str(), options.clients,
              options.serve_queries, options.seed,
              options.no_cache ? "off" : "on");
  if (faults) {
    std::printf("serve: fault rate %g (seed %llu), sticky device %d, %s "
                "submission\n",
                options.fault_rate,
                static_cast<unsigned long long>(options.fault_seed),
                options.sticky_device,
                options.sequential ? "sequential" : "concurrent");
  }

  // Serial references first: the service's results must match these
  // bit-for-bit. With faults enabled the references come from a separate
  // clean manager — the baseline must be what a fault-free run produces.
  std::unique_ptr<DeviceManager> clean;
  DeviceManager* ref_manager = &manager;
  if (faults) {
    clean = std::make_unique<DeviceManager>(setup);
    clean->SetDataScale(options.nominal_sf / options.sf);
    ADAMANT_ASSIGN_OR_RETURN(DeviceId device, clean->AddDriver(kind));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(clean->device(device)));
    ref_manager = clean.get();
  }
  ServeReference ref;
  // SQL serve mode references: the q3/q4/q6 built-ins compiled through the
  // SQL frontend and run serially. The service compiles the same text, so
  // the (deterministic) lowering's named sinks line up with these bundles.
  const char* kSqlServeNames[3] = {"q3", "q4", "q6"};
  std::vector<sql::CompiledQuery> sql_compiled;
  std::vector<plan::PlanBundle> sql_bundles;
  std::vector<sql::SqlResultSet> sql_refs;
  if (options.serve_sql) {
    QueryExecutor ref_executor(ref_manager);
    for (const char* name : kSqlServeNames) {
      const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(name);
      sql::PlannerOptions planner_options;
      planner_options.manager = ref_manager;
      ADAMANT_ASSIGN_OR_RETURN(
          sql::CompiledQuery compiled,
          sql::Compile(builtin->sql, *catalog, planner_options));
      ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                               plan::LowerPlan(*compiled.plan, *catalog, 0));
      ADAMANT_ASSIGN_OR_RETURN(
          QueryExecution exec,
          ref_executor.Run(bundle.graph.get(), exec_options));
      ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet rows,
                               sql::ExtractResults(compiled, bundle, exec));
      sql_compiled.push_back(std::move(compiled));
      sql_bundles.push_back(std::move(bundle));
      sql_refs.push_back(std::move(rows));
    }
  } else {
    ADAMANT_ASSIGN_OR_RETURN(ref, BuildServeReference(*catalog, ref_manager,
                                                      exec_options));
  }

  ServiceConfig config;
  config.workers = std::max<size_t>(options.clients, 1);
  config.enable_cache = !options.no_cache;
  config.slo.watchdog_factor = options.watchdog_factor;
  if (options.deadline_ms > 0 || options.watchdog_factor > 0) {
    std::printf("serve: deadline %g ms, priority %s, watchdog factor %g\n",
                options.deadline_ms,
                options.priority == QueryPriority::kHigh ? "high" : "normal",
                options.watchdog_factor);
  }
  if (faults) {
    // ~10% per-attempt fault rate wants more headroom than the default 3
    // attempts before a ticket is allowed to fail.
    config.retry.max_attempts = 8;
  }
  if (!options.trace_path.empty()) {
    // Enabled before the service exists so worker threads never observe a
    // half-initialized recorder; the reference runs above stay untraced.
    obs::TraceRecorder::Global().Enable();
    for (size_t i = 0; i < manager.num_devices(); ++i) {
      obs::TraceRecorder::Global().SetTrackName(
          static_cast<int>(i),
          manager.device(static_cast<DeviceId>(i))->name());
    }
  }
  QueryService service(&manager, config);

  // Seeded workload: an even Q3/Q4/Q6 mix.
  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> pick(0, 2);
  const Catalog* cat = catalog.get();
  std::vector<int> kinds;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  std::vector<ServeErrorRecord> errors;
  kinds.reserve(options.serve_queries);
  tickets.reserve(options.serve_queries);
  for (size_t i = 0; i < options.serve_queries; ++i) {
    const int kind_ix = pick(rng);
    QuerySpec spec;
    spec.options = exec_options;
    spec.deadline_ms = options.deadline_ms;
    spec.priority = options.priority;
    if (options.serve_sql) {
      spec.name = std::string("sql-") + kSqlServeNames[kind_ix];
      spec.sql = sql::FindBuiltinQuery(kSqlServeNames[kind_ix])->sql;
      spec.sql_catalog = cat;
    } else if (kind_ix == 0) {
      spec.name = "Q3";
      spec.make_graph = [cat](DeviceId device)
          -> Result<std::unique_ptr<PrimitiveGraph>> {
        ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                                 plan::BuildQ3(*cat, {}, device));
        return std::move(bundle.graph);
      };
    } else if (kind_ix == 1) {
      spec.name = "Q4";
      spec.make_graph = [cat](DeviceId device)
          -> Result<std::unique_ptr<PrimitiveGraph>> {
        ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                                 plan::BuildQ4(*cat, {}, device));
        return std::move(bundle.graph);
      };
    } else {
      spec.name = "Q6";
      spec.make_graph = [cat](DeviceId device)
          -> Result<std::unique_ptr<PrimitiveGraph>> {
        ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                                 plan::BuildQ6(*cat, {}, device));
        return std::move(bundle.graph);
      };
    }
    const std::string query_name = spec.name;
    Result<std::shared_ptr<QueryTicket>> submit =
        service.Submit(std::move(spec));
    if (!submit.ok()) {
      // Shed (deadline unmeetable) and capacity rejections are recorded
      // outcomes of the experiment, not reasons to abort it; anything else
      // (a plan bug) still aborts.
      const Status& st = submit.status();
      if (st.IsDeadlineExceeded()) {
        errors.push_back({i, query_name, "shed", st});
      } else if (st.IsOutOfMemory() || st.IsUnavailable()) {
        errors.push_back({i, query_name, "rejected", st});
      } else {
        return st.WithContext("submitting query " + std::to_string(i));
      }
      kinds.push_back(kind_ix);
      tickets.push_back(nullptr);
      continue;
    }
    std::shared_ptr<QueryTicket> ticket = std::move(*submit);
    // Sequential mode serializes the device call order: every attempt of
    // query i happens before any call of query i+1, which makes the fault
    // injectors' seeded decisions — and hence the failure counters —
    // reproducible across runs.
    if (options.sequential) ticket->Wait();
    kinds.push_back(kind_ix);
    tickets.push_back(std::move(ticket));
  }

  size_t mismatches = 0;
  size_t fault_failures = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i] == nullptr) continue;  // shed / rejected at submit
    const Result<QueryExecution>& result = tickets[i]->Wait();
    if (!result.ok()) {
      const Status& st = result.status();
      if (st.IsCancelled() || st.IsDeadlineExceeded()) {
        // SLO outcomes (deadline lapse, user cancel, unretried watchdog
        // trip) are recorded even under fault injection — they are what a
        // deadline experiment measures.
        errors.push_back(
            {i, tickets[i]->name(), "cancelled", st});
        continue;
      }
      // With fault injection on, a ticket that exhausted its retries is an
      // expected outcome to report, not a reason to abort the workload.
      if (faults) {
        ++fault_failures;
        continue;
      }
      errors.push_back({i, tickets[i]->name(), "failed", st});
      continue;
    }
    bool match = false;
    if (options.serve_sql) {
      const size_t k = static_cast<size_t>(kinds[i]);
      ADAMANT_ASSIGN_OR_RETURN(
          sql::SqlResultSet rows,
          sql::ExtractResults(sql_compiled[k], sql_bundles[k], *result));
      match = rows.rows == sql_refs[k].rows;
    } else if (kinds[i] == 0) {
      ADAMANT_ASSIGN_OR_RETURN(
          auto rows, plan::ExtractQ3(ref.q3_bundle, *result, *catalog, {}));
      match = rows == ref.q3;
    } else if (kinds[i] == 1) {
      ADAMANT_ASSIGN_OR_RETURN(auto rows,
                               plan::ExtractQ4(ref.q4_bundle, *result));
      match = rows == ref.q4;
    } else {
      ADAMANT_ASSIGN_OR_RETURN(int64_t revenue,
                               plan::ExtractQ6(ref.q6_bundle, *result));
      match = revenue == ref.q6;
    }
    if (!match) ++mismatches;
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  std::printf("serve: %zu/%zu results match serial runs\n",
              tickets.size() - mismatches - fault_failures - errors.size(),
              tickets.size());
  if (!errors.empty()) {
    // Machine-readable record of every shed / rejected / cancelled / failed
    // served query, on one greppable line; paired with exit code 3 so
    // harnesses distinguish "the SLO shed work" from "the binary broke".
    std::printf("serve_errors: %s\n", ServeErrorsJson(errors).c_str());
    *exit_code = 3;
  }
  if (faults) {
    std::printf("serve: %zu queries failed after retries; %zu fault unwinds, "
                "%zu retries, %zu quarantines\n",
                fault_failures, stats.fault_unwinds, stats.retries,
                stats.quarantines);
  }
  std::printf("%s\n", stats.ToJson().c_str());
  if (!options.trace_path.empty()) {
    std::ofstream out(options.trace_path);
    out << obs::TraceRecorder::Global().ExportChromeJson();
    if (!out.good()) {
      return Status::IOError("cannot write trace to " + options.trace_path);
    }
    std::printf("trace written to %s (open in chrome://tracing or Perfetto)\n",
                options.trace_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, &service));
  }
  if (!options.history_path.empty()) {
    std::ofstream out(options.history_path);
    out << service.HistoryJson();
    if (!out.good()) {
      return Status::IOError("cannot write history to " +
                             options.history_path);
    }
    std::printf("query history written to %s\n", options.history_path.c_str());
  }
  service.Stop();
  if (!options.trace_path.empty()) obs::TraceRecorder::Global().Disable();
  if (mismatches > 0) {
    return Status::ExecutionError(std::to_string(mismatches) +
                                  " served queries diverged from the serial "
                                  "reference");
  }
  return Status::OK();
}

Status Run(const Options& options, int* exit_code) {
  if (options.list_queries) {
    for (const sql::BuiltinQuery& query : sql::BuiltinQueries()) {
      std::printf("%s — %s\n%s\n\n", query.name.c_str(), query.title.c_str(),
                  query.sql.c_str());
    }
    return Status::OK();
  }

  // Data.
  std::shared_ptr<Catalog> catalog;
  if (!options.tbl_dir.empty()) {
    ADAMANT_ASSIGN_OR_RETURN(catalog, tpch::LoadTblDirectory(options.tbl_dir));
    std::printf("loaded .tbl data from %s\n", options.tbl_dir.c_str());
  } else {
    tpch::TpchConfig config;
    config.scale_factor = options.sf;
    ADAMANT_ASSIGN_OR_RETURN(catalog, tpch::Generate(config));
    std::printf("generated TPC-H at SF %g (emulating SF %g)\n", options.sf,
                options.nominal_sf);
  }

  if (options.serve) return Serve(options, catalog, exit_code);

  // Device.
  ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind kind,
                           DriverFromName(options.driver));
  DeviceManager manager(options.setup == 2 ? sim::HardwareSetup::kSetup2
                                           : sim::HardwareSetup::kSetup1);
  manager.SetDataScale(options.nominal_sf / options.sf);
  DeviceId device = 0;
  if (!options.device_classes.empty()) {
    // Heterogeneous device-parallel run: one device per named driver class,
    // in --devices order; the chunk range splits across the mixed set by
    // cost ratio.
    for (size_t i = 0; i < options.device_classes.size(); ++i) {
      ADAMANT_ASSIGN_OR_RETURN(sim::DriverKind class_kind,
                               DriverFromName(options.device_classes[i]));
      ADAMANT_ASSIGN_OR_RETURN(
          DeviceId added,
          manager.AddDriver(class_kind, options.device_classes[i] + "." +
                                            std::to_string(i)));
      ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(added)));
    }
  } else {
    ADAMANT_ASSIGN_OR_RETURN(device, manager.AddDriver(kind));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
    if (!options.device_set.empty()) {
      // Device-parallel run: plug enough instances of the chosen driver to
      // cover every id in --devices (device 0 is already plugged above).
      const DeviceId max_id = *std::max_element(options.device_set.begin(),
                                                options.device_set.end());
      for (DeviceId id = 1; id <= max_id; ++id) {
        ADAMANT_ASSIGN_OR_RETURN(
            DeviceId added, manager.AddDriver(kind, options.driver + "." +
                                                        std::to_string(id)));
        ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(added)));
      }
    }
  }
  if (!options.sim_trace_path.empty()) {
    manager.device(device)->transfer_timeline().set_tracing(true);
    manager.device(device)->d2h_timeline().set_tracing(true);
    manager.device(device)->compute_timeline().set_tracing(true);
  }

  // Wall-clock tracing routes the queries through a one-off single-worker
  // QueryService: the exported trace then carries the service admission and
  // placement instants in addition to the runtime's spans, which is what a
  // trace of a served query would show.
  std::unique_ptr<QueryService> service;
  if (!options.trace_path.empty()) {
    obs::TraceRecorder::Global().Enable();
    for (size_t i = 0; i < manager.num_devices(); ++i) {
      obs::TraceRecorder::Global().SetTrackName(
          static_cast<int>(i),
          manager.device(static_cast<DeviceId>(i))->name());
    }
    ServiceConfig config;
    config.workers = 1;
    service = std::make_unique<QueryService>(&manager, config);
  }

  // Queries.
  std::vector<std::string> queries;
  if (!options.sql.empty() || !options.sql_file.empty()) {
    queries.clear();  // SQL mode replaces the built-in plan list.
    ADAMANT_RETURN_NOT_OK(
        RunSql(*catalog, &manager, device, options, service.get()));
  } else if (options.query == "all") {
    queries = {"1", "3", "4", "5", "6", "10", "12", "14"};
  } else {
    queries = {options.query};
  }
  for (const std::string& query : queries) {
    if (query == "14" && !catalog->GetTable("part").ok()) {
      std::printf("Q14 skipped (no part table)\n");
      continue;
    }
    if (query == "5" && !catalog->GetTable("region").ok()) {
      std::printf("Q5 skipped (no region table)\n");
      continue;
    }
    ADAMANT_RETURN_NOT_OK(RunQuery(query, *catalog, &manager, device, options,
                                   service.get()));
  }

  if (service != nullptr) {
    service->Drain();
    std::ofstream out(options.trace_path);
    out << obs::TraceRecorder::Global().ExportChromeJson();
    if (!out.good()) {
      return Status::IOError("cannot write trace to " + options.trace_path);
    }
    std::printf("trace written to %s (open in chrome://tracing or Perfetto)\n",
                options.trace_path.c_str());
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, service.get()));
  }
  if (service != nullptr) {
    service->Stop();
    obs::TraceRecorder::Global().Disable();
  }

  if (!options.sim_trace_path.empty()) {
    SimulatedDevice* dev = manager.device(device);
    std::string json = sim::ToChromeTrace({&dev->transfer_timeline(),
                                           &dev->d2h_timeline(),
                                           &dev->compute_timeline()});
    std::ofstream out(options.sim_trace_path);
    out << json;
    if (!out.good()) {
      return Status::IOError("cannot write trace to " +
                             options.sim_trace_path);
    }
    std::printf("simulated-timeline trace written to %s\n",
                options.sim_trace_path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace adamant

int main(int argc, char** argv) {
  auto options = adamant::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n\nRun run_tpch --help for usage.\n",
                 options.status().ToString().c_str());
    return 2;
  }
  if (options->help) {
    std::fputs(adamant::kUsage, stdout);
    return 0;
  }
  // Exit codes: 0 success, 1 hard failure, 2 bad arguments, 3 served
  // queries were shed/cancelled/failed (see the serve_errors: JSON line).
  int exit_code = 0;
  adamant::Status st = adamant::Run(*options, &exit_code);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return exit_code;
}
