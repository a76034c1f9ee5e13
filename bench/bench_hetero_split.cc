// Heterogeneous CPU+GPU split execution: Q3/Q6 at nominal SF 30 across a
// modeled fast+slow device pair (the slow device is the same cuda_gpu model
// with 4x slower compute and 2x slower transfer), cost-ratio partitioned and
// runtime-rebalanced, versus the fast device alone.
//
// Gates (exit 1 on failure):
//   * Q6 cost-ratio split over fast+slow is >= 1.3x faster than the fast
//     device alone (chunked);
//   * Q3 cost-ratio split beats the fast device alone;
//   * with the static ratio deliberately mis-set 2x (the fast device's share
//     halved), runtime rebalancing recovers >= 80% of the gap between the
//     mis-set static run and the well-set run;
//   * on a homogeneous pair (two identical fast devices) the cost-ratio path
//     stays within 5% of the historical even-split static run;
//   * every run's results are bit-identical to the host reference.
//
// Results land in BENCH_hetero.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace adamant::bench {
namespace {

constexpr double kNominalSf = 30;
// Finer chunks than bench_multidevice so the ratio search has granularity
// (~43 scan chunks on lineitem at SF 30).
constexpr size_t kChunkElems = size_t{1} << 22;
constexpr double kSlowCompute = 0.25;   // 4x-asymmetric compute
constexpr double kSlowTransfer = 0.7;   // moderately slower bus

std::unique_ptr<DeviceManager> MakeHeteroManager() {
  auto manager = std::make_unique<DeviceManager>(sim::HardwareSetup::kSetup1);
  manager->SetDataScale(kNominalSf / kActualSf);
  auto fast = manager->AddDriver(sim::DriverKind::kCudaGpu, "cuda_fast.0");
  ADAMANT_CHECK(fast.ok()) << fast.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*fast)).ok());
  DriverProps props =
      MakeDriverProps(sim::DriverKind::kCudaGpu, manager->setup());
  props.model = sim::ScalePerfModel(props.model, kSlowCompute, kSlowTransfer);
  auto slow = manager->AddDevice(std::make_unique<SimulatedDevice>(
      "cuda_slow.1", std::move(props.model), props.format,
      props.runtime_compile, manager->sim_context()));
  ADAMANT_CHECK(slow.ok()) << slow.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager->device(*slow)).ok());
  return manager;
}

std::unique_ptr<DeviceManager> MakeHomoManager() {
  auto manager = std::make_unique<DeviceManager>(sim::HardwareSetup::kSetup1);
  manager->SetDataScale(kNominalSf / kActualSf);
  for (int i = 0; i < 2; ++i) {
    auto device = manager->AddDriver(sim::DriverKind::kCudaGpu,
                                     "cuda_gpu." + std::to_string(i));
    ADAMANT_CHECK(device.ok()) << device.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*device)).ok());
  }
  return manager;
}

struct Sample {
  int query = 0;
  std::string label;
  double elapsed_ms = 0;
  double speedup = 0;  // vs fast-device-alone chunked on the same query
  std::string chunk_split;
  std::string split_ratio;
  size_t chunks_stolen = 0;
  bool rebalance = false;
  bool match = false;  // bit-identical to the host reference
};

bool MatchesReference(int query, const plan::PlanBundle& bundle,
                      const QueryExecution& exec, const Catalog& catalog) {
  if (query == 6) {
    auto want = tpch::Q6Reference(catalog, {});
    auto got = plan::ExtractQ6(bundle, exec);
    return want.ok() && got.ok() && *got == *want;
  }
  auto want = tpch::Q3Reference(catalog, {});
  auto got = plan::ExtractQ3(bundle, exec, catalog, {});
  return want.ok() && got.ok() && *got == *want;
}

Sample RunPoint(DeviceManager* manager, int query, const std::string& label,
                ExecutionModelKind model, std::vector<DeviceId> device_set,
                std::vector<double> device_split, bool rebalance) {
  const Catalog& catalog = SharedCatalog();
  plan::PlanBundle bundle = BuildQuery(query, catalog, 0);
  ExecutionOptions options;
  options.model = model;
  options.chunk_elems = kChunkElems;
  options.device_set = std::move(device_set);
  options.device_split = std::move(device_split);
  options.split_rebalance = rebalance;
  QueryExecutor executor(manager);
  auto exec = executor.Run(bundle.graph.get(), options);
  ADAMANT_CHECK(exec.ok()) << "Q" << query << "/" << label << ": "
                           << exec.status().ToString();
  Sample sample;
  sample.query = query;
  sample.label = label;
  sample.elapsed_ms = sim::MsFromUs(exec->stats.elapsed_us);
  sample.rebalance = rebalance;
  for (const auto& [device, chunks] : exec->stats.chunks_by_device) {
    if (!sample.chunk_split.empty()) sample.chunk_split += "+";
    sample.chunk_split += std::to_string(chunks);
  }
  for (const auto& [device, ratio] : exec->stats.split_ratio_by_device) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ratio);
    if (!sample.split_ratio.empty()) sample.split_ratio += "+";
    sample.split_ratio += buf;
  }
  for (const auto& [device, stolen] : exec->stats.chunks_stolen_by_device) {
    sample.chunks_stolen += stolen;
  }
  sample.match = MatchesReference(query, bundle, *exec, catalog);
  return sample;
}

/// The well-set cost-ratio weights the driver would compute on its own, used
/// to derive the deliberately mis-set split.
std::vector<double> AutoWeights(DeviceManager* manager, int query) {
  const Catalog& catalog = SharedCatalog();
  plan::PlanBundle bundle = BuildQuery(query, catalog, 0);
  ExecutionOptions options;
  options.model = ExecutionModelKind::kDeviceParallel;
  options.chunk_elems = kChunkElems;
  options.device_set = {0, 1};
  auto prices = exec::PriceDevices(*bundle.graph, options, manager,
                                   options.device_set);
  ADAMANT_CHECK(prices.ok()) << prices.status().ToString();
  return exec::ThroughputWeights(*prices);
}

void WriteJson(const std::vector<Sample>& samples, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  ADAMANT_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"hetero_split\",\n");
  std::fprintf(f,
               "  \"nominal_sf\": %g,\n  \"chunk_elems\": %zu,\n"
               "  \"slow_compute_factor\": %g,\n"
               "  \"slow_transfer_factor\": %g,\n",
               kNominalSf, kChunkElems, kSlowCompute, kSlowTransfer);
  std::fprintf(f, "  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"query\": \"Q%d\", \"label\": \"%s\", "
                 "\"elapsed_ms\": %.3f, \"speedup\": %.3f, "
                 "\"chunk_split\": \"%s\", \"split_ratio\": \"%s\", "
                 "\"chunks_stolen\": %zu, \"rebalance\": %s, "
                 "\"match\": %s}%s\n",
                 s.query, s.label.c_str(), s.elapsed_ms, s.speedup,
                 s.chunk_split.c_str(), s.split_ratio.c_str(), s.chunks_stolen,
                 s.rebalance ? "true" : "false", s.match ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace adamant::bench

int main() {
  using namespace adamant;
  using namespace adamant::bench;

  std::vector<Sample> samples;
  bool ok = true;
  std::printf("%-4s %-24s %12s %9s %12s %14s %7s %6s\n", "Q", "point",
              "elapsed_ms", "speedup", "chunk_split", "split_ratio", "stolen",
              "match");

  struct QueryResult {
    double baseline = 0, well = 0, mis_static = 0, mis_rebal = 0;
  };
  std::vector<std::pair<int, QueryResult>> results;

  for (int query : {6, 3}) {
    auto manager = MakeHeteroManager();
    QueryResult r;

    Sample baseline =
        RunPoint(manager.get(), query, "fast-alone", ExecutionModelKind::kChunked,
                 {}, {}, false);
    baseline.speedup = 1.0;
    r.baseline = baseline.elapsed_ms;

    // Cost-ratio split, rebalancing on (the default production path).
    Sample well = RunPoint(manager.get(), query, "hetero-cost-ratio",
                           ExecutionModelKind::kDeviceParallel, {0, 1}, {},
                           true);
    r.well = well.elapsed_ms;

    // Mis-set the static ratio 2x: halve the fast device's share.
    std::vector<double> weights = AutoWeights(manager.get(), query);
    ADAMANT_CHECK(weights.size() == 2);
    std::vector<double> misset = {weights[0] / 2.0, 1.0 - weights[0] / 2.0};
    Sample mis_static = RunPoint(manager.get(), query, "misset-2x-static",
                                 ExecutionModelKind::kDeviceParallel, {0, 1},
                                 misset, false);
    r.mis_static = mis_static.elapsed_ms;
    Sample mis_rebal = RunPoint(manager.get(), query, "misset-2x-rebalanced",
                                ExecutionModelKind::kDeviceParallel, {0, 1},
                                misset, true);
    r.mis_rebal = mis_rebal.elapsed_ms;

    // Even split across the pair for visibility (what a ratio-blind
    // homogeneous splitter would do with a slow device in the set).
    Sample even = RunPoint(manager.get(), query, "hetero-even-static",
                           ExecutionModelKind::kDeviceParallel, {0, 1},
                           {0.5, 0.5}, false);

    for (Sample* s : {&well, &mis_static, &mis_rebal, &even}) {
      s->speedup = baseline.elapsed_ms / s->elapsed_ms;
    }
    for (const Sample& s : {baseline, well, mis_static, mis_rebal, even}) {
      std::printf("Q%-3d %-24s %12.3f %9.3f %12s %14s %7zu %6s\n", s.query,
                  s.label.c_str(), s.elapsed_ms, s.speedup,
                  s.chunk_split.c_str(), s.split_ratio.c_str(),
                  s.chunks_stolen, s.match ? "yes" : "NO");
      samples.push_back(s);
      if (!s.match) {
        std::printf("FAIL: Q%d %s is not bit-identical to the reference\n",
                    s.query, s.label.c_str());
        ok = false;
      }
    }
    results.emplace_back(query, r);
  }

  // Homogeneous non-regression: two identical fast devices, cost-ratio path
  // (weights come out even, rebalancing on) vs the historical static even
  // split. The new machinery must stay within 5%.
  for (int query : {6, 3}) {
    auto manager = MakeHomoManager();
    Sample legacy = RunPoint(manager.get(), query, "homo-even-static",
                             ExecutionModelKind::kDeviceParallel, {0, 1},
                             {0.5, 0.5}, false);
    Sample auto_split = RunPoint(manager.get(), query, "homo-cost-ratio",
                                 ExecutionModelKind::kDeviceParallel, {0, 1},
                                 {}, true);
    legacy.speedup = 1.0;
    auto_split.speedup = legacy.elapsed_ms / auto_split.elapsed_ms;
    for (const Sample& s : {legacy, auto_split}) {
      std::printf("Q%-3d %-24s %12.3f %9.3f %12s %14s %7zu %6s\n", s.query,
                  s.label.c_str(), s.elapsed_ms, s.speedup,
                  s.chunk_split.c_str(), s.split_ratio.c_str(),
                  s.chunks_stolen, s.match ? "yes" : "NO");
      samples.push_back(s);
      if (!s.match) {
        std::printf("FAIL: Q%d %s is not bit-identical to the reference\n",
                    query, s.label.c_str());
        ok = false;
      }
    }
    if (auto_split.elapsed_ms > legacy.elapsed_ms * 1.05) {
      std::printf("FAIL: Q%d homogeneous cost-ratio split (%.3f ms) regresses "
                  ">5%% vs the static even split (%.3f ms)\n",
                  query, auto_split.elapsed_ms, legacy.elapsed_ms);
      ok = false;
    } else {
      std::printf("OK: Q%d homogeneous cost-ratio split within 5%% of even "
                  "split (%.3f vs %.3f ms)\n",
                  query, auto_split.elapsed_ms, legacy.elapsed_ms);
    }
  }

  WriteJson(samples, "BENCH_hetero.json");

  for (const auto& [query, r] : results) {
    double speedup = r.well > 0 ? r.baseline / r.well : 0;
    if (query == 6) {
      if (speedup < 1.3) {
        std::printf("FAIL: Q6 fast+slow cost-ratio split only %.2fx vs the "
                    "fast device alone (gate: >= 1.3x)\n",
                    speedup);
        ok = false;
      } else {
        std::printf("OK: Q6 fast+slow cost-ratio split %.2fx vs fast alone\n",
                    speedup);
      }
    } else {
      if (r.well >= r.baseline) {
        std::printf("FAIL: Q%d fast+slow cost-ratio split (%.3f ms) does not "
                    "beat the fast device alone (%.3f ms)\n",
                    query, r.well, r.baseline);
        ok = false;
      } else {
        std::printf("OK: Q%d fast+slow cost-ratio split %.2fx vs fast alone\n",
                    query, speedup);
      }
    }
    // Rebalancing must recover >= 80% of the deliberately-created gap.
    double gap = r.mis_static - r.well;
    if (gap <= 0) {
      std::printf("FAIL: Q%d mis-set static run (%.3f ms) is not slower than "
                  "the well-set run (%.3f ms); mis-set gate is vacuous\n",
                  query, r.mis_static, r.well);
      ok = false;
    } else {
      double recovery = (r.mis_static - r.mis_rebal) / gap;
      if (recovery < 0.8) {
        std::printf("FAIL: Q%d rebalancing recovered only %.0f%% of the "
                    "mis-set gap (gate: >= 80%%)\n",
                    query, recovery * 100);
        ok = false;
      } else {
        std::printf("OK: Q%d rebalancing recovered %.0f%% of the mis-set "
                    "2x gap (%.3f -> %.3f ms, well-set %.3f ms)\n",
                    query, recovery * 100, r.mis_static, r.mis_rebal, r.well);
      }
    }
  }
  return ok ? 0 : 1;
}
