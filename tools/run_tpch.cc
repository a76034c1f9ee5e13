// run_tpch — command-line front end for the whole stack: generate or load
// TPC-H data, pick a driver/setup/execution model, run queries, verify
// against the scalar references, and optionally dump a chrome trace.
// `run_tpch --help` prints the flag reference (kUsage below).

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "adamant/adamant.h"
#include "tpch/tbl_schemas.h"

namespace adamant {
namespace {

constexpr char kUsage[] = R"(usage: run_tpch [flags]

  run_tpch --query=6 --sf=0.02 --nominal-sf=30 --driver=cuda_gpu
           --model=4phase --chunk=auto --verify --trace=/tmp/q6.json

Every query compiles through CompileQuery (src/sql/compile.h): traced,
explained and served runs execute the plan an untraced run executes.

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
                    Task-layer kernel variant: auto = per-device policy (CPU
                    drivers parallel, GPU drivers scalar); the choice per
                    device is reported on a JSON line
  --kernel-threads=N
                    thread budget for parallel variants, 0..1024 (default:
                    the device policy count, 4 on CPU drivers)
  --fusion=off|on|auto
                    plan-level kernel fusion (src/plan/fusion.h) of
                    MAP/FILTER/MATERIALIZE/AGG chains: never, every eligible
                    group, or (default) where the cost model predicts a win
  --verify          compare results against the scalar reference
  --trace=PATH      write a chrome://tracing JSON of the run: per-device
                    pipeline/chunk/kernel/transfer spans on the wall clock;
                    with --serve also admission/placement events; and, as
                    a second process, every device's h2d/d2h/compute
                    engine bookings on the simulated clock, one window per
                    query (validate with check_trace)
  --profile         print the per-query phase profile as a JSON line
  --metrics=PATH    after the run, dump the metrics registries to PATH as
                    Prometheus text (or JSON when PATH ends in .json)
  --explain         print the compiled plan — each primitive's kernel
                    variant and threads, the device-parallel split, and for
                    SQL the logical plan and placement search — and exit
  --explain-analyze run with per-operator stats and print the measured tree
                    next to the planner's predictions (rows, selectivity,
                    cost share, q-errors); docs/observability.md

SQL frontend (src/sql/, docs/sql.md):

  run_tpch --sql=q6 --verify          # run a built-in by name
  run_tpch --sql="SELECT ..." --explain
  run_tpch --sql-file=query.sql

  --sql=TEXT        a built-in name from --list-queries, or literal SQL;
                    --verify cross-checks against the host interpreter
  --sql-file=PATH   like --sql, reading the query text from PATH
  --list-queries    print every built-in query name + SQL text and exit
  --devices=LIST    (single-query mode) run device-parallel across distinct
                    device ids below 64, e.g. --devices=0,1 (a bare count N
                    means 0..N-1), or across one device per named driver
                    class, e.g. --devices=cuda_gpu,openmp_cpu; at most 64
  --split=LIST      explicit split shares, one positive value per --devices
                    entry (e.g. --split=3,1); overrides the cost ratios
  --no-rebalance    disable runtime chunk stealing between partitions

Serve mode (the service layer of src/service/): replays a seeded mixed
Q3/Q4/Q6 workload through the QueryService scheduler, checks every result
against the scalar reference, and prints ServiceStats as JSON:

  run_tpch --serve --clients=4 --queries=50 --seed=7 --devices=2

  --serve           enable serve mode
  --serve-sql       serve the q3/q4/q6 built-ins as SQL text instead,
                    checked against the host interpreter
  --clients=N       concurrent worker threads, 1..64 (default 4)
  --queries=N       workload size (default 50)
  --seed=N          workload RNG seed (default 7)
  --devices=N       instances of --driver to plug, 1..64 (default 2)
  --no-cache        disable the cross-query device column cache
  --history=PATH    dump the query-history ring and the calibration store
                    as JSON after the workload drains (docs/serving.md)

Fault injection (serve mode; see docs/serving.md "Fault handling"):

  run_tpch --serve --queries=200 --fault-rate=0.007 --fault-seed=13

  --fault-rate=P    per-call transient fault probability in [0, 1] on each
                    serving device's data-path interface calls (default 0 =
                    off)
  --fault-seed=N    fault RNG seed; device i uses N + i (default 13)
  --sticky-device=I device I dies on its first Execute and stays dead
                    until quarantined (default -1 = none)
  --stall-ms=F      with --sticky-device: stall every Execute for F ms
                    instead of failing (a straggler for the watchdog)
  --sequential      submit one query at a time, so same-seed runs report
                    identical failure counters

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

// Upper bounds of the counts that start threads or plug devices, so a typo
// exits 2 instead of starting thousands of either.
constexpr size_t kMaxClients = 64;
constexpr size_t kMaxDevices = 64;

// Parsed flags; kUsage documents each.
struct Options {
  bool help = false;
  std::string query = "all";
  double sf = 0.01;
  double nominal_sf = -1;  // <= 0: sf
  std::string tbl_dir;
  std::string driver = "cuda_gpu";
  int setup = 1;
  std::string model = "chunked";
  size_t chunk = size_t{1} << 25;
  bool chunk_auto = false;
  std::string kernel_variant = "auto";
  int kernel_threads = 0;
  std::string fusion = "auto";
  bool verify = false;
  std::string trace_path;
  bool profile = false;
  std::string metrics_path;
  bool explain = false;
  bool explain_analyze = false;
  std::string history_path;
  std::string sql;
  std::string sql_file;
  bool list_queries = false;
  bool serve = false;
  bool serve_sql = false;
  size_t clients = 4;
  size_t serve_queries = 50;
  unsigned seed = 7;
  size_t devices = 2;
  /// The --devices list as device ids (the device-parallel set) and, for
  /// driver-class names, the class of each id.
  std::vector<DeviceId> device_set;
  std::vector<std::string> device_classes;
  std::vector<double> device_split;  // --split, parallel to device_set
  bool no_rebalance = false;
  bool no_cache = false;
  double fault_rate = 0;
  uint64_t fault_seed = 13;
  int sticky_device = -1;
  bool sequential = false;
  double deadline_ms = 0;
  QueryPriority priority = QueryPriority::kNormal;
  double watchdog_factor = 0;
  double stall_ms = 0;
};

// Checked numeric flag value: the whole text must parse as a finite T (so
// signs on unsigned flags, trailing junk, overflow, nan and inf are all
// rejected) no smaller than `min`; a bad value names its flag and exits 2.
template <typename T>
Status ParseNumber(const std::string& flag, const std::string& value, T* out,
                   std::type_identity_t<T> min =
                       std::numeric_limits<T>::lowest()) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (value.empty() || ec != std::errc() || ptr != end ||
      !(*out >= min && *out <= std::numeric_limits<T>::max())) {
    return Status::InvalidArgument("--" + flag + ": '" + value +
                                   "' is not a valid value");
  }
  return Status::OK();
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

const char* const kQueries[] = {"1", "3", "4", "5", "6", "10", "12", "14"};

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

// --devices: comma-separated ids select a device-parallel partition set; a
// bare count keeps the serve-mode meaning (N instances) and, in
// single-query mode, expands to ids 0..N-1. Driver-class names
// (--devices=cuda_gpu,openmp_cpu) plug a mixed heterogeneous set.
Status ParseDevices(const std::string& value, Options* options) {
  options->device_set.clear();
  options->device_classes.clear();
  const std::vector<std::string> tokens = SplitList(value);
  if (value.find(',') == std::string::npos &&
      (value.empty() || std::isdigit(static_cast<unsigned char>(value[0])))) {
    ADAMANT_RETURN_NOT_OK(ParseNumber("devices", value, &options->devices, 1));
    if (options->devices > kMaxDevices) {
      return Status::InvalidArgument("--devices: at most " +
                                     std::to_string(kMaxDevices) +
                                     " devices, got " + value);
    }
    for (size_t d = 0; d < options->devices; ++d) {
      options->device_set.push_back(static_cast<DeviceId>(d));
    }
    return Status::OK();
  }
  if (tokens.empty()) {
    return Status::InvalidArgument("--devices: '" + value +
                                   "' names no device");
  }
  if (tokens.size() > kMaxDevices) {
    return Status::InvalidArgument(
        "--devices: at most " + std::to_string(kMaxDevices) +
        " devices, got a list of " + std::to_string(tokens.size()));
  }
  const bool named =
      !std::isdigit(static_cast<unsigned char>(tokens.front().front()));
  for (size_t t = 0; t < tokens.size(); ++t) {
    auto id = static_cast<DeviceId>(t);
    if (named) {
      if (!DriverFromName(tokens[t]).ok()) {
        return Status::InvalidArgument("--devices: unknown driver '" +
                                       tokens[t] + "'");
      }
      options->device_classes.push_back(tokens[t]);
    } else {
      ADAMANT_RETURN_NOT_OK(ParseNumber("devices", tokens[t], &id, 0));
      if (static_cast<size_t>(id) >= kMaxDevices) {
        return Status::InvalidArgument("--devices: device ids must be below " +
                                       std::to_string(kMaxDevices) + ", got " +
                                       tokens[t]);
      }
    }
    if (std::find(options->device_set.begin(), options->device_set.end(),
                  id) != options->device_set.end()) {
      return Status::InvalidArgument("--devices: device " + tokens[t] +
                                     " is listed twice");
    }
    options->device_set.push_back(id);
  }
  options->devices = options->device_set.size();
  return Status::OK();
}

// Options → ExecutionOptions for the execution knobs that run_tpch forwards
// verbatim. ParseArgs validates the strings before calling it (exit 2 on
// typos), so the Parse* calls here cannot fail.
ExecutionOptions MakeExecOptions(const Options& options) {
  ExecutionOptions exec_options;
  exec_options.model = *ParseExecutionModel(options.model);
  exec_options.chunk_elems = options.chunk;
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

// ValidateExecutionOptions names the option field it rejects; its message
// gets the flag that sets that field.
std::string FlagOfField(const std::string& message) {
  const std::pair<const char*, const char*> kFlags[] = {
      {"kernel_threads", "--kernel-threads"},
      {"device_split", "--split"},
      {"chunk_elems", "--chunk"}};
  for (const auto& [field, flag] : kFlags) {
    if (message.find(field) != std::string::npos) return flag;
  }
  return "flags";
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  const std::map<std::string, bool*> switches = {
      {"--help", &o.help},
      {"--verify", &o.verify},
      {"--profile", &o.profile},
      {"--explain", &o.explain},
      {"--explain-analyze", &o.explain_analyze},
      {"--list-queries", &o.list_queries},
      {"--serve", &o.serve},
      {"--no-rebalance", &o.no_rebalance},
      {"--no-cache", &o.no_cache},
      {"--sequential", &o.sequential},
  };
  const std::map<std::string, std::string*> paths = {
      {"tbl-dir", &o.tbl_dir},         {"trace", &o.trace_path},
      {"metrics", &o.metrics_path},    {"sql-file", &o.sql_file},
      {"history", &o.history_path},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto it = switches.find(arg); it != switches.end()) {
      *it->second = true;
      continue;
    }
    if (arg == "--serve-sql") {
      o.serve = o.serve_sql = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    const std::string flag = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    // A bad value names its flag; main() exits 2 with the message.
    auto bad = [&flag](const std::string& why) {
      return Status::InvalidArgument("--" + flag + ": " + why);
    };
    // Knob strings are validated through the same parsers the runtime's
    // ValidateExecutionOptions uses, so a typo exits 2 instead of failing
    // mid-run.
    if (auto it = paths.find(flag); it != paths.end()) {
      *it->second = value;
    } else if (flag == "query") {
      if (value != "all" && std::find(std::begin(kQueries), std::end(kQueries),
                                      value) == std::end(kQueries)) {
        return bad("'" + value + "' is not one of 1, 3, 4, 5, 6, 10, 12, 14, "
                   "all");
      }
      o.query = value;
    } else if (flag == "sf") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.sf, 1e-9));
    } else if (flag == "nominal-sf") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.nominal_sf));
    } else if (flag == "driver") {
      if (!DriverFromName(value).ok()) {
        return bad("unknown driver '" + value + "'");
      }
      o.driver = value;
    } else if (flag == "setup") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.setup));
      if (o.setup != 1 && o.setup != 2) {
        return bad("'" + value + "' is not 1 or 2");
      }
    } else if (flag == "model") {
      ADAMANT_RETURN_NOT_OK(ParseExecutionModel(value).status());
      o.model = value;
    } else if (flag == "chunk") {
      o.chunk_auto = value == "auto";
      if (!o.chunk_auto) {
        ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.chunk, 1));
      }
    } else if (flag == "kernel-variant") {
      ADAMANT_RETURN_NOT_OK(ParseKernelVariant(value).status());
      o.kernel_variant = value;
    } else if (flag == "kernel-threads") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.kernel_threads, 0));
    } else if (flag == "fusion") {
      ADAMANT_RETURN_NOT_OK(ParseFusionMode(value).status());
      o.fusion = value;
    } else if (flag == "clients") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.clients, 1));
      if (o.clients > kMaxClients) {
        return bad("at most " + std::to_string(kMaxClients) + " clients");
      }
    } else if (flag == "queries") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.serve_queries));
    } else if (flag == "seed") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.seed));
    } else if (flag == "devices") {
      ADAMANT_RETURN_NOT_OK(ParseDevices(value, &o));
    } else if (flag == "split") {
      o.device_split.clear();
      for (const std::string& tok : SplitList(value)) {
        double share = 0;
        ADAMANT_RETURN_NOT_OK(ParseNumber(flag, tok, &share));
        if (!(share > 0)) return bad("share '" + tok + "' is not positive");
        o.device_split.push_back(share);
      }
    } else if (flag == "fault-rate") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.fault_rate, 0.0));
      if (o.fault_rate > 1) return bad("'" + value + "' is not a probability");
    } else if (flag == "fault-seed") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.fault_seed));
    } else if (flag == "sticky-device") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.sticky_device));
    } else if (flag == "deadline-ms") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.deadline_ms, 0.0));
    } else if (flag == "priority") {
      if (value != "normal" && value != "high") {
        return bad("must be normal|high");
      }
      o.priority =
          value == "high" ? QueryPriority::kHigh : QueryPriority::kNormal;
    } else if (flag == "watchdog-factor") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.watchdog_factor, 0.0));
    } else if (flag == "stall-ms") {
      ADAMANT_RETURN_NOT_OK(ParseNumber(flag, value, &o.stall_ms, 0.0));
    } else if (flag == "sql") {
      if (value.empty()) return bad("the query text is empty");
      o.sql = value;
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (o.serve && o.chunk_auto) {
    return Status::InvalidArgument("--chunk=auto is single-query only");
  }
  if (o.serve && o.explain) {
    return Status::InvalidArgument("--explain: single-query only, not --serve");
  }
  if (!o.device_split.empty() &&
      o.device_split.size() != o.device_set.size()) {
    return Status::InvalidArgument(
        "--split: " + std::to_string(o.device_split.size()) +
        " share(s) for " + std::to_string(o.device_set.size()) +
        " --devices entries");
  }
  if (o.nominal_sf <= 0) o.nominal_sf = o.sf;
  // The runtime's own knob validation, before any data is generated.
  if (Status st = ValidateExecutionOptions(MakeExecOptions(o)); !st.ok()) {
    return Status::InvalidArgument(FlagOfField(st.message()) + ": " +
                                   st.message());
  }
  return o;
}

// --explain: one line per primitive with the Task-layer kernel variant its
// launches resolve to (the compiled plan's price asks the device, so
// kernels without a parallel binding show scalar) and its thread budget.
// Fused composites carry their recipe in the label.
void PrintExplain(const std::string& title, const CompiledPlan& plan) {
  std::printf("%s primitive graph (fusion %s: %d group(s), %d primitive(s) "
              "fused):\n",
              title.c_str(), FusionModeName(plan.options.fusion),
              plan.fusion.groups, plan.fusion.nodes_fused);
  for (const GraphNode& node : plan.bundle.graph->nodes()) {
    const KernelVariantChoice choice =
        plan.prices.front().nodes[static_cast<size_t>(node.id)].choice;
    const bool fused_node = node.kind == PrimitiveKind::kFused ||
                            node.kind == PrimitiveKind::kFusedAgg;
    const std::string variant =
        std::string(fused_node ? "fused/" : "") +
        KernelVariantName(choice.variant);
    std::printf("  [%2d] %-22s %-36s variant=%s threads=%d\n", node.id,
                PrimitiveKindName(node.kind), node.label.c_str(),
                variant.c_str(), choice.threads);
  }
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
  // Per column family: sum, max and count of q-errors.
  struct QSummary {
    double sum = 0, max = 0;
    size_t n = 0;
    void Add(double q) { sum += q, max = std::max(max, q), ++n; }
    double mean() const { return n > 0 ? sum / static_cast<double>(n) : 1.0; }
  } sel_q, cost_q;
  for (const obs::OperatorStats& op : operators) {
    char rows[64], sel[48] = "-", q_sel[32] = "-", cost[48] = "-",
                   q_cost[32] = "-";
    std::snprintf(rows, sizeof(rows), "%.0f->%llu", op.predicted_rows_out,
                  static_cast<unsigned long long>(op.rows_out));
    if (op.selective && op.rows_in > 0) {
      const double q = obs::QError(op.predicted_selectivity,
                                   op.ActualSelectivity());
      std::snprintf(sel, sizeof(sel), "%.4f->%.4f", op.predicted_selectivity,
                    op.ActualSelectivity());
      std::snprintf(q_sel, sizeof(q_sel), "%.2f", q);
      sel_q.Add(q);
    }
    if (pred_total > 0 && actual_total > 0 && op.launches > 0) {
      const double pred_share = op.predicted_cost_us / pred_total;
      const double actual_share = op.kernel_ms / actual_total;
      const double q = obs::QError(pred_share, actual_share);
      std::snprintf(cost, sizeof(cost), "%4.1f->%4.1f", pred_share * 100,
                    actual_share * 100);
      std::snprintf(q_cost, sizeof(q_cost), "%.2f", q);
      cost_q.Add(q);
    }
    std::printf("  %4d %3d %-20s %-30s %22s %15s %7s %13s %7s %6zu %9.3f\n",
                op.pipeline, op.node_id, op.kind.c_str(), op.label.c_str(),
                rows, sel, q_sel, cost, q_cost, op.launches, op.kernel_ms);
  }
  std::printf("  qerror: selectivity mean %.2f max %.2f (%zu ops), "
              "cost-share mean %.2f max %.2f (%zu ops)\n",
              sel_q.mean(), sel_q.max, sel_q.n, cost_q.mean(), cost_q.max,
              cost_q.n);
}

// --explain: a device-parallel split's devices with their shares and
// predicted per-partition cost (share x the graph priced on that device).
void PrintSplit(DeviceManager* manager, const std::vector<DeviceId>& set,
                const std::vector<double>& shares,
                const std::vector<double>& partition_cost_us) {
  std::printf("split:");
  for (size_t i = 0; i < set.size(); ++i) {
    std::printf(" %s=%.3f (predicted %.3f ms/partition)",
                manager->device(set[i])->name().c_str(), shares[i],
                sim::MsFromUs(partition_cost_us[i]));
  }
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

// Writes `text` to `path` and reports "<what> written to <path><note>".
Status WriteOutput(const std::string& path, const std::string& text,
                   const std::string& what, const char* note = "") {
  std::ofstream out(path);
  out << text;
  if (!out.good()) {
    return Status::IOError("cannot write " + what + " to " + path);
  }
  std::printf("%s written to %s%s\n", what.c_str(), path.c_str(), note);
  return Status::OK();
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
  return WriteOutput(path, text, "metrics",
                     json ? " (JSON)" : " (Prometheus text)");
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

// With --verify, compares `got` against the scalar reference `want()`.
template <typename T, typename Reference>
Status Verdict(const std::string& query, bool verify, const T& got,
               Reference want) {
  if (!verify) return Status::OK();
  ADAMANT_ASSIGN_OR_RETURN(T reference, want());
  const bool match = got == reference;
  std::printf("    verification: %s\n", match ? "MATCH" : "MISMATCH");
  return match ? Status::OK()
               : Status::ExecutionError("Q" + query + " mismatch");
}

// Prints a hand-built query's results, checked against its reference.
Status ReportTpch(const std::string& query, const plan::PlanBundle& bundle,
                  const QueryExecution& exec, const Catalog& catalog,
                  bool verify) {
  if (query == "6") {
    ADAMANT_ASSIGN_OR_RETURN(int64_t revenue, plan::ExtractQ6(bundle, exec));
    std::printf("    revenue = %.2f\n", MoneyToDouble(revenue));
    return Verdict(query, verify, revenue,
                   [&] { return tpch::Q6Reference(catalog, {}); });
  }
  if (query == "3") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows,
                             plan::ExtractQ3(bundle, exec, catalog, {}));
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      std::printf("    order %d: revenue %.2f\n", rows[i].orderkey,
                  MoneyToDouble(rows[i].revenue));
    }
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q3Reference(catalog, {}); });
  }
  if (query == "4") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ4(bundle, exec));
    for (const auto& row : rows) {
      std::printf("    priority %d: %lld orders\n", row.priority,
                  static_cast<long long>(row.order_count));
    }
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q4Reference(catalog, {}); });
  }
  if (query == "5") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ5(bundle, exec, catalog));
    for (const auto& row : rows) {
      std::printf("    %-16s revenue %.2f\n", row.nation.c_str(),
                  MoneyToDouble(row.revenue));
    }
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q5Reference(catalog, {}); });
  }
  if (query == "1") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ1(bundle, exec));
    std::printf("    %zu (returnflag, linestatus) groups\n", rows.size());
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q1Reference(catalog, {}); });
  }
  if (query == "10") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ10(bundle, exec, {}));
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      std::printf("    customer %d: lost revenue %.2f\n", rows[i].custkey,
                  MoneyToDouble(rows[i].revenue));
    }
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q10Reference(catalog, {}); });
  }
  if (query == "12") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ12(bundle, exec));
    for (const auto& row : rows) {
      std::printf("    shipmode %d: high %lld, low %lld\n", row.shipmode,
                  static_cast<long long>(row.high_line_count),
                  static_cast<long long>(row.low_line_count));
    }
    return Verdict(query, verify, rows,
                   [&] { return tpch::Q12Reference(catalog, {}); });
  }
  ADAMANT_ASSIGN_OR_RETURN(auto result, plan::ExtractQ14(bundle, exec));
  std::printf("    promo revenue = %.2f%%\n", result.promo_pct());
  return Verdict(query, verify, result,
                 [&] { return tpch::Q14Reference(catalog, {}); });
}

// One single-query run: a hand-built TPC-H plan (`query`, e.g. "6") or SQL
// text, reported under `label`.
struct SingleQuery {
  std::string label;
  std::string query;  // hand-built id; empty for SQL
  std::string sql;
};

// Compiles `q` through CompileQuery — the same plan whether or not the run
// is traced — then explains or runs it.
Status RunSingleQuery(const SingleQuery& q, const Catalog& catalog,
                      DeviceManager* manager, DeviceId device,
                      const Options& options) {
  CompileContext context;
  context.catalog = &catalog;
  context.manager = manager;
  context.placement = plan::PlacementPolicy::AllOn(device);
  context.options = MakeExecOptions(options);
  auto compile = [&]() -> Result<CompiledPlan> {
    QuerySource source;
    source.sql = q.sql;
    if (q.sql.empty()) {
      ADAMANT_ASSIGN_OR_RETURN(source.bundle,
                               BuildBundle(q.query, catalog, device));
    }
    return CompileQuery(std::move(source), context);
  };
  ADAMANT_ASSIGN_OR_RETURN(CompiledPlan plan, compile());
  if (options.chunk_auto) {
    // The suggestion reads the compiled (fused) graph; recompile so the
    // split, prices and memory estimate use the chunk size the run uses.
    ADAMANT_ASSIGN_OR_RETURN(
        context.options.chunk_elems,
        SuggestChunkElems(*manager->device(device), *plan.bundle.graph));
    ADAMANT_ASSIGN_OR_RETURN(plan, compile());
  }

  if (options.explain) {
    if (plan.query != nullptr) {
      std::printf("%s: %s\n%s", q.label.c_str(), q.sql.c_str(),
                  sql::ExplainCompiled(*plan.query).c_str());
    }
    PrintExplain(q.label, plan);
    if (plan.query != nullptr) {
      ADAMANT_ASSIGN_OR_RETURN(
          plan::PlacementSearchResult placement,
          plan::SearchPlacements(*plan.query->plan, catalog, manager,
                                 context.options));
      std::printf("placement: %s (simulated %.3f ms, %zu candidates)\n",
                  placement.best_name.c_str(),
                  sim::MsFromUs(placement.best_elapsed_us),
                  placement.evaluated.size());
      if (!placement.best_device_set.empty()) {  // a device-parallel winner
        PrintSplit(manager, placement.best_device_set, placement.best_split,
                   placement.best_partition_cost_us);
        std::printf("\n");
      }
    }
    if (plan.prices.size() > 1) {  // the plan's own device-parallel split
      const ExecutionOptions& run = plan.options;
      std::vector<double> cost_us;
      for (size_t i = 0; i < plan.prices.size(); ++i) {
        cost_us.push_back(plan.prices[i].cost_us * run.device_split[i]);
      }
      PrintSplit(manager, run.device_set, run.device_split, cost_us);
      std::printf(" rebalance=%s\n", run.split_rebalance ? "on" : "off");
    }
    return Status::OK();
  }

  QueryExecutor executor(manager);
  ADAMANT_ASSIGN_OR_RETURN(QueryExecution exec,
                           executor.Run(plan.bundle.graph.get(), plan.options));
  // Hand-built titles pad to "Q14 " so the report columns line up.
  std::printf("%-*s on %s (%s, chunk %zu):\n", q.sql.empty() ? 4 : 0,
              q.label.c_str(), manager->device(device)->name().c_str(),
              ExecutionModelName(plan.options.model), plan.options.chunk_elems);
  PrintStats(exec, device);
  // Self-describing benchmark output: which Task-layer kernel variant each
  // used device resolved, its thread budget, and how many launches actually
  // dispatched a parallel or fused fn.
  const std::string& id = q.sql.empty() ? q.query : q.label;
  std::string variants_json;
  for (const DeviceRunStats& ds : exec.stats.devices) {
    if (ds.execute_calls == 0 || ds.kernel_variant.empty()) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"variant\":\"%s\",\"threads\":%d,"
                  "\"parallel_launches\":%zu,\"fused_launches\":%zu}",
                  variants_json.empty() ? "" : ",", ds.name.c_str(),
                  ds.kernel_variant.c_str(), ds.kernel_threads,
                  ds.parallel_launches, ds.fused_launches);
    variants_json += buf;
  }
  if (!variants_json.empty()) {
    std::printf("    {\"query\":\"%s\",\"fused_groups\":%d,"
                "\"kernel_variants\":{%s}}\n",
                id.c_str(), plan.fusion.groups, variants_json.c_str());
  }
  if (options.profile) {
    std::printf("    profile: %s\n", exec.stats.profile.ToJson().c_str());
  }
  if (options.explain_analyze) {
    PrintExplainAnalyze(q.label, exec.stats.profile.operators);
    obs::RecordPlanQErrors(&obs::GlobalMetrics(), q.label,
                           exec.stats.profile.operators);
  }
  if (plan.options.model == ExecutionModelKind::kDeviceParallel) {
    // Machine-readable split report: which device ran how many chunks, the
    // planned split ratio per device, how many chunks each partition stole
    // at runtime, and the host time spent merging breaker containers.
    auto to_json = [](const auto& by_device, const char* format) {
      std::string json;
      for (const auto& [dev_id, value] : by_device) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), format, dev_id, value);
        if (!json.empty()) json += ",";
        json += buf;
      }
      return json;
    };
    std::printf("    {\"query\":\"%s\",\"model\":\"device-parallel\","
                "\"devices\":%zu,\"chunks_by_device\":{%s},"
                "\"split_ratio\":{%s},\"chunks_stolen\":{%s},"
                "\"rebalance\":%s,"
                "\"merge_host_ms\":%.4f,\"elapsed_ms\":%.3f}\n",
                id.c_str(), plan.options.device_set.size(),
                to_json(exec.stats.chunks_by_device, "\"%d\":%zu").c_str(),
                to_json(exec.stats.split_ratio_by_device, "\"%d\":%.4f")
                    .c_str(),
                to_json(exec.stats.chunks_stolen_by_device, "\"%d\":%zu")
                    .c_str(),
                plan.options.split_rebalance ? "true" : "false",
                exec.stats.merge_host_ms, sim::MsFromUs(exec.stats.elapsed_us));
  }

  if (q.sql.empty()) {
    return ReportTpch(q.query, plan.bundle, exec, catalog, options.verify);
  }
  ADAMANT_ASSIGN_OR_RETURN(sql::SqlResultSet results,
                           sql::ExtractResults(*plan.query, plan.bundle, exec));
  std::printf("%s",
              sql::FormatResultSet(results, *plan.query, catalog).c_str());
  if (options.verify) {
    ADAMANT_RETURN_NOT_OK(sql::VerifyAgainstInterpreter(
        *plan.query, plan.bundle, exec, catalog));
    std::printf("    verification: MATCH (host interpreter)\n");
  }
  return Status::OK();
}

// Resolves --sql / --sql-file into query text + a display label. A --sql
// value naming a built-in (see --list-queries) expands to its SQL.
Result<SingleQuery> ResolveSql(const Options& options) {
  if (!options.sql_file.empty()) {
    std::ifstream in(options.sql_file);
    if (!in.good()) {
      return Status::IOError("cannot read --sql-file=" + options.sql_file);
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return SingleQuery{options.sql_file, "", std::move(text)};
  }
  if (const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(options.sql)) {
    return SingleQuery{builtin->name, "", builtin->sql};
  }
  return SingleQuery{"sql", "", options.sql};
}

Status WriteTrace(const std::string& path) {
  return WriteOutput(path, obs::TraceRecorder::Global().ExportChromeJson(),
                     "trace", " (open in chrome://tracing or Perfetto)");
}

// Turns the wall-clock recorder on, one named track per plugged device.
void EnableTracing(DeviceManager* manager) {
  obs::TraceRecorder::Global().Enable();
  for (size_t i = 0; i < manager->num_devices(); ++i) {
    obs::TraceRecorder::Global().SetTrackName(
        static_cast<int>(i), manager->device(static_cast<DeviceId>(i))->name());
  }
}

// ---------------------------------------------------------------------------
// Serve mode: a seeded Q3/Q4/Q6 mix through the QueryService, each result
// extracted from the plan its ticket ran and checked against an independent
// oracle: the scalar reference, or the host interpreter for SQL.
// ---------------------------------------------------------------------------

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

// The scalar references of the hand-built serve mix.
struct ServeReferences {
  std::vector<tpch::Q3Row> q3;
  std::vector<tpch::Q4Row> q4;
  int64_t q6 = 0;
};

// Whether one served result, extracted from the plan its ticket ran,
// matches its oracle.
Result<bool> CheckServed(const Options& options, const std::string& query,
                         const CompiledPlan& plan, const QueryExecution& exec,
                         const Catalog& catalog, const ServeReferences& refs) {
  if (options.serve_sql) {
    const Status st =
        sql::VerifyAgainstInterpreter(*plan.query, plan.bundle, exec, catalog);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return st.ok();
  }
  if (query == "3") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows,
                             plan::ExtractQ3(plan.bundle, exec, catalog, {}));
    return rows == refs.q3;
  }
  if (query == "4") {
    ADAMANT_ASSIGN_OR_RETURN(auto rows, plan::ExtractQ4(plan.bundle, exec));
    return rows == refs.q4;
  }
  ADAMANT_ASSIGN_OR_RETURN(int64_t revenue, plan::ExtractQ6(plan.bundle, exec));
  return revenue == refs.q6;
}

Status Serve(const Options& options, const std::shared_ptr<Catalog>& catalog,
             int* exit_code) {
  const sim::DriverKind kind = *DriverFromName(options.driver);
  const bool faults = options.fault_rate > 0 || options.sticky_device >= 0;
  DeviceManager manager(options.setup == 2 ? sim::HardwareSetup::kSetup2
                                           : sim::HardwareSetup::kSetup1);
  manager.SetDataScale(options.nominal_sf / options.sf);
  const size_t num_devices = std::max<size_t>(options.devices, 1);
  for (size_t i = 0; i < num_devices; ++i) {
    const std::string name = options.driver + "." + std::to_string(i);
    FaultPlan plan;
    if (faults) {
      plan = FaultPlan::TransientRate(options.fault_rate,
                                      options.fault_seed + i);
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
    }
    ADAMANT_ASSIGN_OR_RETURN(
        DeviceId device, faults ? manager.AddDriver(kind, name, std::move(plan))
                                : manager.AddDriver(kind, name));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(device)));
  }

  ExecutionOptions exec_options;
  exec_options.model = *ParseExecutionModel(options.model);
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

  ServeReferences refs;
  if (!options.serve_sql) {
    ADAMANT_ASSIGN_OR_RETURN(refs.q3, tpch::Q3Reference(*catalog, {}));
    ADAMANT_ASSIGN_OR_RETURN(refs.q4, tpch::Q4Reference(*catalog, {}));
    ADAMANT_ASSIGN_OR_RETURN(refs.q6, tpch::Q6Reference(*catalog, {}));
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
  // Enabled before the service exists so worker threads never observe a
  // half-initialized recorder.
  if (!options.trace_path.empty()) EnableTracing(&manager);
  QueryService service(&manager, config);

  // Seeded workload: an even Q3/Q4/Q6 mix.
  const char* const kServeQueries[3] = {"3", "4", "6"};
  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> pick(0, 2);
  const Catalog* cat = catalog.get();
  std::vector<std::string> queries;
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  std::vector<ServeErrorRecord> errors;
  queries.reserve(options.serve_queries);
  tickets.reserve(options.serve_queries);
  for (size_t i = 0; i < options.serve_queries; ++i) {
    const std::string query = kServeQueries[pick(rng)];
    QuerySpec spec;
    spec.options = exec_options;
    spec.deadline_ms = options.deadline_ms;
    spec.priority = options.priority;
    if (options.serve_sql) {
      spec.name = "sql-q" + query;
      spec.sql = sql::FindBuiltinQuery("q" + query)->sql;
      spec.sql_catalog = cat;
    } else {
      spec.name = "Q" + query;
      spec.make_graph = [cat, query](DeviceId device)
          -> Result<std::unique_ptr<PrimitiveGraph>> {
        ADAMANT_ASSIGN_OR_RETURN(plan::PlanBundle bundle,
                                 BuildBundle(query, *cat, device));
        return std::move(bundle.graph);
      };
    }
    const std::string query_name = spec.name;
    queries.push_back(query);
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
      tickets.push_back(nullptr);
      continue;
    }
    std::shared_ptr<QueryTicket> ticket = std::move(*submit);
    // Sequential mode serializes the device call order: every attempt of
    // query i happens before any call of query i+1, which makes the fault
    // injectors' seeded decisions — and hence the failure counters —
    // reproducible across runs.
    if (options.sequential) ticket->Wait();
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
        errors.push_back({i, tickets[i]->name(), "cancelled", st});
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
    ADAMANT_ASSIGN_OR_RETURN(bool match,
                             CheckServed(options, queries[i],
                                         *tickets[i]->plan(), *result,
                                         *catalog, refs));
    if (!match) ++mismatches;
  }
  service.Drain();

  ServiceStats stats = service.GetStats();
  std::printf("serve: %zu/%zu results match the reference\n",
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
    ADAMANT_RETURN_NOT_OK(WriteTrace(options.trace_path));
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, &service));
  }
  if (!options.history_path.empty()) {
    ADAMANT_RETURN_NOT_OK(WriteOutput(options.history_path,
                                      service.HistoryJson(), "query history"));
  }
  service.Stop();
  if (!options.trace_path.empty()) obs::TraceRecorder::Global().Disable();
  if (mismatches > 0) {
    return Status::ExecutionError(std::to_string(mismatches) +
                                  " served queries diverged from the "
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

  // Devices: one per named driver class of a heterogeneous --devices list,
  // else enough instances of --driver to cover every --devices id.
  DeviceManager manager(options.setup == 2 ? sim::HardwareSetup::kSetup2
                                           : sim::HardwareSetup::kSetup1);
  manager.SetDataScale(options.nominal_sf / options.sf);
  const DeviceId device = 0;
  std::vector<std::string> drivers = options.device_classes;
  if (drivers.empty()) {
    const DeviceId max_id =
        options.device_set.empty()
            ? 0
            : *std::max_element(options.device_set.begin(),
                                options.device_set.end());
    drivers.assign(static_cast<size_t>(max_id) + 1, options.driver);
  }
  for (size_t i = 0; i < drivers.size(); ++i) {
    const sim::DriverKind kind = *DriverFromName(drivers[i]);
    // The first --driver instance keeps the driver's own name.
    ADAMANT_ASSIGN_OR_RETURN(
        DeviceId added,
        i == 0 && options.device_classes.empty()
            ? manager.AddDriver(kind)
            : manager.AddDriver(kind, drivers[i] + "." + std::to_string(i)));
    ADAMANT_RETURN_NOT_OK(BindStandardKernels(manager.device(added)));
  }
  // Tracing only records: the traced run executes the same plan.
  if (!options.trace_path.empty()) EnableTracing(&manager);

  // Queries.
  std::vector<SingleQuery> queries;
  if (!options.sql.empty() || !options.sql_file.empty()) {
    ADAMANT_ASSIGN_OR_RETURN(SingleQuery q, ResolveSql(options));
    queries.push_back(std::move(q));
  } else {
    for (const char* query : kQueries) {
      if (options.query != "all" && options.query != query) continue;
      const std::string id = query;
      const char* table = id == "14" ? "part" : id == "5" ? "region" : "";
      if (*table != '\0' && !catalog->GetTable(table).ok()) {
        std::printf("Q%s skipped (no %s table)\n", query, table);
        continue;
      }
      queries.push_back({"Q" + id, id, ""});
    }
  }
  for (const SingleQuery& q : queries) {
    ADAMANT_RETURN_NOT_OK(
        RunSingleQuery(q, *catalog, &manager, device, options));
  }

  if (!options.trace_path.empty()) {
    obs::TraceRecorder::Global().Disable();
    ADAMANT_RETURN_NOT_OK(WriteTrace(options.trace_path));
  }
  if (!options.metrics_path.empty()) {
    ADAMANT_RETURN_NOT_OK(DumpMetrics(options.metrics_path, nullptr));
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
