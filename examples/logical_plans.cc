// Working with ADAMANT at the optimizer level: take the logical plans the
// SQL planner emits for the TPC-H built-ins, EXPLAIN them, lower them to
// primitive graphs with a device-placement policy, and execute — no
// hand-wired primitives anywhere.

#include <cstdio>

#include "adamant/adamant.h"
#include "plan/placement_optimizer.h"

using namespace adamant;  // NOLINT — example brevity

// The planned logical tree of a SQL built-in (q1, q3, q4, q6, ...).
Result<sql::CompiledQuery> PlanBuiltin(const char* name,
                                       const Catalog& catalog) {
  const sql::BuiltinQuery* builtin = sql::FindBuiltinQuery(name);
  if (builtin == nullptr) return Status::NotFound(name);
  return sql::Compile(builtin->sql, catalog);
}

int main() {
  auto catalog = tpch::Generate({.scale_factor = 0.01});
  if (!catalog.ok()) return 1;

  DeviceManager manager;
  auto gpu = manager.AddDriver(sim::DriverKind::kCudaGpu);
  auto cpu = manager.AddDriver(sim::DriverKind::kOpenMpCpu);
  if (!gpu.ok() || !cpu.ok()) return 1;
  if (!BindStandardKernels(manager.device(*gpu)).ok()) return 1;
  if (!BindStandardKernels(manager.device(*cpu)).ok()) return 1;

  // 1) A logical plan, as the optimizer emits it.
  auto q3 = PlanBuiltin("q3", **catalog);
  if (!q3.ok()) return 1;
  std::printf("=== Logical plan (TPC-H Q3) ===\n%s\n",
              plan::ExplainPlan(*q3->plan).c_str());

  // 2) Lower it with a heterogeneous placement policy: streaming primitives
  //    on the CPU driver, hash primitives on the GPU. The router moves data
  //    between the devices at pipeline boundaries.
  plan::PlacementPolicy policy;
  policy.default_device = *gpu;
  policy.by_kind[PrimitiveKind::kFilterBitmap] = *cpu;
  policy.by_kind[PrimitiveKind::kMap] = *cpu;
  auto bundle = plan::LowerPlan(*q3->plan, **catalog, policy);
  if (!bundle.ok()) {
    std::fprintf(stderr, "lowering: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Lowered primitive graph ===\n");
  for (const GraphNode& node : bundle->graph->nodes()) {
    std::printf("  [%2d] %-22s %-34s on %s\n", node.id,
                PrimitiveKindName(node.kind), node.label.c_str(),
                manager.device(node.device)->name().c_str());
  }

  // 3) Execute and verify against the scalar reference.
  ExecutionOptions options;
  options.model = ExecutionModelKind::kChunked;
  options.chunk_elems = size_t{1} << 20;
  QueryExecutor executor(&manager);
  auto exec = executor.Run(bundle->graph.get(), options);
  if (!exec.ok()) {
    std::fprintf(stderr, "run: %s\n", exec.status().ToString().c_str());
    return 1;
  }
  auto got = sql::ExtractResults(*q3, *bundle, *exec);
  if (!got.ok()) return 1;
  const Status verified =
      sql::VerifyAgainstInterpreter(*q3, *bundle, *exec, **catalog);
  std::printf("\n=== Q3 top results (%s) ===\n%s",
              verified.ok() ? "match the host interpreter" : "MISMATCH",
              sql::FormatResultSet(*got, *q3, **catalog, 5).c_str());
  std::printf("\nsimulated elapsed: %.2f ms; %zu bytes crossed the host "
              "between devices\n",
              sim::MsFromUs(exec->stats.elapsed_us), exec->stats.bytes_d2h);

  // 4) What-if placement search: simulate every (streaming, hash, sink) ->
  //    device assignment and report the ranking.
  manager.SetDataScale(30.0 / 0.01);  // placement matters at larger scales
  auto q6 = PlanBuiltin("q6", **catalog);
  if (!q6.ok()) return 1;
  ExecutionOptions search_options;
  search_options.model = ExecutionModelKind::kChunked;
  auto search =
      plan::SearchPlacements(*q6->plan, **catalog, &manager, search_options);
  if (!search.ok()) return 1;
  std::printf("\n=== What-if placement search (Q6, nominal SF 30) ===\n");
  for (const auto& [name, elapsed] : search->evaluated) {
    if (elapsed < 0) {
      std::printf("  %-60s failed\n", name.c_str());
    } else {
      std::printf("  %-60s %9.1f ms%s\n", name.c_str(),
                  sim::MsFromUs(elapsed),
                  name == search->best_name ? "  <- best" : "");
    }
  }
  return verified.ok() ? 0 : 2;
}
