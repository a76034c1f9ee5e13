// SQL frontend compile latency: wall-clock cost of lex → parse → bind →
// plan for every builtin query. The frontend sits on the query submission
// path (the service compiles SQL once per Submit), so its cost is real host
// time, not simulated device time — same reporting rationale as
// bench_obs_overhead.
//
// Method: per builtin and scale factor, warm up, then keep the minimum of N
// compiles (min-of-N is the standard low-noise wall-clock estimator), the
// two scale factors alternating.
// Planning includes sampling-based selectivity annotation, which reads every
// k-th row of the tables the query scans, and join-order costing. Compile
// time therefore grows with the sampled rows of the touched tables: linearly
// in the scale factor. The gate — also enforced in CI — holds that claim:
//
//   compile_min(SF 0.06) <= compile_min(SF 0.02) * 5.5   for every builtin
//
// Linear growth is 3x. Work quadratic in table size, such as copying the
// catalog through one-element appends that each reallocate, grows 7-9x.
//
// Results land in BENCH_sql.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adamant/adamant.h"

namespace adamant::bench {
namespace {

constexpr double kScaleFactors[] = {0.02, 0.06};
constexpr double kMaxRatio = 5.5;
constexpr int kIterations = 25;

double CompileOnceUs(const std::string& sql, const Catalog& catalog,
                     const sql::PlannerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto compiled = sql::Compile(sql, catalog, options);
  const auto end = std::chrono::steady_clock::now();
  ADAMANT_CHECK(compiled.ok()) << compiled.status().ToString();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

int Main() {
  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  ADAMANT_CHECK(gpu.ok()) << gpu.status().ToString();
  ADAMANT_CHECK(BindStandardKernels(manager.device(*gpu)).ok());

  sql::PlannerOptions options;
  options.manager = &manager;  // enable cost-based join ordering

  std::vector<std::shared_ptr<Catalog>> catalogs;
  for (double sf : kScaleFactors) {
    tpch::TpchConfig config;
    config.scale_factor = sf;
    auto catalog = tpch::Generate(config);
    ADAMANT_CHECK(catalog.ok()) << catalog.status().ToString();
    catalogs.push_back(*catalog);
  }
  // compile_us[query][scale factor index]. The two scale factors alternate
  // within each iteration, so a change in host load hits both sides.
  const auto& builtins = sql::BuiltinQueries();
  std::vector<std::vector<double>> compile_us(builtins.size());
  for (size_t q = 0; q < builtins.size(); ++q) {
    const std::string& sql = builtins[q].sql;
    for (const auto& catalog : catalogs) {
      for (int i = 0; i < 3; ++i) CompileOnceUs(sql, *catalog, options);
    }
    compile_us[q].assign(catalogs.size(),
                         std::numeric_limits<double>::infinity());
    for (int i = 0; i < kIterations; ++i) {
      for (size_t c = 0; c < catalogs.size(); ++c) {
        compile_us[q][c] = std::min(compile_us[q][c],
                                    CompileOnceUs(sql, *catalogs[c], options));
      }
    }
  }

  std::printf("SQL compile latency, host clock (min of %d)\n", kIterations);
  std::printf("  %-18s %10s %10s %7s\n", "query", "SF 0.02 us", "SF 0.06 us",
              "ratio");
  std::FILE* json = std::fopen("BENCH_sql.json", "w");
  ADAMANT_CHECK(json != nullptr);
  std::fprintf(json,
               "{\"clock\":\"host\",\"scale_factors\":[%g,%g],"
               "\"max_ratio\":%g,\"queries\":[",
               kScaleFactors[0], kScaleFactors[1], kMaxRatio);
  bool ok = true;
  for (size_t q = 0; q < builtins.size(); ++q) {
    const double ratio = compile_us[q][1] / compile_us[q][0];
    const std::string& name = builtins[q].name;
    std::printf("  %-18s %10.1f %10.1f %6.2fx\n", name.c_str(),
                compile_us[q][0], compile_us[q][1], ratio);
    std::fprintf(json,
                 "%s{\"name\":\"%s\",\"compile_us\":[%.1f,%.1f],"
                 "\"ratio\":%.3f}",
                 q == 0 ? "" : ",", name.c_str(), compile_us[q][0],
                 compile_us[q][1], ratio);
    if (ratio > kMaxRatio) {
      std::printf("FAIL (host clock): %s compile grows %.2fx from SF %g to "
                  "SF %g > %.1fx\n",
                  name.c_str(), ratio, kScaleFactors[0], kScaleFactors[1],
                  kMaxRatio);
      ok = false;
    }
  }
  std::fprintf(json, "],\"pass\":%s}\n", ok ? "true" : "false");
  std::fclose(json);
  if (ok) {
    std::printf("OK (host clock): every compile grows <= %.1fx from SF %g to "
                "SF %g\n",
                kMaxRatio, kScaleFactors[0], kScaleFactors[1]);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace adamant::bench

int main() { return adamant::bench::Main(); }
