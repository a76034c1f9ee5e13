// Figure 9: throughput profiles of the primitives on both hardware setups
// and all four drivers:
//   (a) filter producing a bitmap            — flat in input size
//   (b) filter + materialization             — GPUs drop to ~30% of (a)
//   (c) hash aggregation vs group count      — OpenCL degrades drastically,
//                                              CUDA stays flat-ish
//   (d) hash build vs input size             — GPU throughput drops with
//                                              size (atomic serialization)
//   (e) hash probe vs input size             — like build; CUDA slightly
//                                              below OpenCL
//
// The paper profiles 2^28 random int32 values (1 GiB); runs here execute
// 2^20 actual elements with the cost model charging nominal sizes.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "task/hash_table.h"

namespace adamant::bench {
namespace {

constexpr size_t kActualElems = size_t{1} << 20;

struct DriverCombo {
  const char* name;
  sim::DriverKind kind;
  sim::HardwareSetup setup;
};

const DriverCombo kCombos[] = {
    {"opencl_gpu/setup1", sim::DriverKind::kOpenClGpu,
     sim::HardwareSetup::kSetup1},
    {"cuda_gpu/setup1", sim::DriverKind::kCudaGpu, sim::HardwareSetup::kSetup1},
    {"opencl_cpu/setup1", sim::DriverKind::kOpenClCpu,
     sim::HardwareSetup::kSetup1},
    {"openmp_cpu/setup1", sim::DriverKind::kOpenMpCpu,
     sim::HardwareSetup::kSetup1},
    {"opencl_gpu/setup2", sim::DriverKind::kOpenClGpu,
     sim::HardwareSetup::kSetup2},
    {"cuda_gpu/setup2", sim::DriverKind::kCudaGpu, sim::HardwareSetup::kSetup2},
    {"opencl_cpu/setup2", sim::DriverKind::kOpenClCpu,
     sim::HardwareSetup::kSetup2},
    {"openmp_cpu/setup2", sim::DriverKind::kOpenMpCpu,
     sim::HardwareSetup::kSetup2},
};

std::vector<int32_t> RandomKeys(size_t n, int32_t max_key) {
  Rng rng(4242);
  std::vector<int32_t> keys(n);
  for (auto& key : keys) {
    key = static_cast<int32_t>(rng.Uniform(1, max_key));
  }
  return keys;
}

/// Runs `body` once per iteration on a fresh-timeline device; reports
/// nominal throughput.
template <typename Body>
void RunPanel(benchmark::State& state, const DriverCombo& combo,
              double nominal_tuples, Body&& body) {
  BenchRig rig = BenchRig::Make(combo.kind, combo.setup);
  rig.manager->SetDataScale(nominal_tuples /
                            static_cast<double>(kActualElems));
  for (auto _ : state) {
    rig.dev()->ResetTimelines();
    const double elapsed_us = body(rig.dev());
    state.SetIterationTime(sim::SecFromUs(elapsed_us));
    state.counters["Gtuples/s"] =
        nominal_tuples / 1e9 / sim::SecFromUs(elapsed_us);
  }
  state.SetItemsProcessed(static_cast<int64_t>(nominal_tuples) *
                          static_cast<int64_t>(state.iterations()));
}

// (a) / (b): filter, optionally with materialization.
void FilterBench(benchmark::State& state, DriverCombo combo,
                 bool with_materialize) {
  const auto nominal = static_cast<double>(state.range(0));
  std::vector<int32_t> data = RandomKeys(kActualElems, 1 << 30);
  RunPanel(state, combo, nominal, [&](SimulatedDevice* dev) {
    auto in = dev->PrepareMemory(kActualElems * 4);
    auto bitmap = dev->PrepareMemory(bit_util::BytesForBits(kActualElems));
    ADAMANT_CHECK(in.ok() && bitmap.ok());
    ADAMANT_CHECK(dev->PlaceData(*in, data.data(), kActualElems * 4, 0).ok());
    const double t0 = dev->MaxCompletion();
    ADAMANT_CHECK(dev->Execute(kernels::MakeFilterBitmap(
                                   *in, *bitmap, CmpOp::kLt,
                                   ElementType::kInt32, 1 << 29, 0, false,
                                   kActualElems))
                      .ok());
    BufferId to_free[2] = {*in, *bitmap};
    double end;
    if (with_materialize) {
      auto out = dev->PrepareMemory(kActualElems * 8);
      auto count = dev->PrepareMemory(8);
      ADAMANT_CHECK(out.ok() && count.ok());
      ADAMANT_CHECK(dev->Execute(kernels::MakeMaterialize(
                                     *in, *bitmap, *out, *count,
                                     ElementType::kInt32, kActualElems))
                        .ok());
      end = dev->MaxCompletion();
      ADAMANT_CHECK(dev->DeleteMemory(*out).ok());
      ADAMANT_CHECK(dev->DeleteMemory(*count).ok());
    } else {
      end = dev->MaxCompletion();
    }
    ADAMANT_CHECK(dev->DeleteMemory(to_free[0]).ok());
    ADAMANT_CHECK(dev->DeleteMemory(to_free[1]).ok());
    return end - t0;
  });
}

// (c): hash aggregation with a group-count sweep at fixed 2^28 nominal rows.
void HashAggBench(benchmark::State& state, DriverCombo combo) {
  const auto nominal_groups = static_cast<double>(state.range(0));
  constexpr double kNominalRows = double{1 << 28};
  // Keep the actual group count proportional so the real table behaves the
  // same; at least 4 groups.
  const auto actual_groups = static_cast<int32_t>(std::max<double>(
      4, nominal_groups * kActualElems / kNominalRows));
  std::vector<int32_t> keys = RandomKeys(kActualElems, actual_groups);
  std::vector<int64_t> values(kActualElems, 1);
  const size_t slots =
      HashTableLayout::SlotsFor(static_cast<size_t>(actual_groups));
  RunPanel(state, combo, kNominalRows, [&](SimulatedDevice* dev) {
    auto k = dev->PrepareMemory(kActualElems * 4);
    auto v = dev->PrepareMemory(kActualElems * 8);
    auto table = dev->PrepareMemory(HashTableLayout::AggTableBytes(slots, 1));
    ADAMANT_CHECK(k.ok() && v.ok() && table.ok());
    ADAMANT_CHECK(dev->PlaceData(*k, keys.data(), kActualElems * 4, 0).ok());
    ADAMANT_CHECK(dev->PlaceData(*v, values.data(), kActualElems * 8, 0).ok());
    ADAMANT_CHECK(
        dev->Execute(kernels::MakeFill(
                         *table, HashTableLayout::kEmptyKey,
                         HashTableLayout::AggTableBytes(slots, 1) / 4))
            .ok());
    const double t0 = dev->MaxCompletion();
    // Group count is passed as the *nominal* contention parameter directly.
    KernelLaunch launch = kernels::MakeHashAgg(
        *k, {{AggOp::kSum, *v, ElementType::kInt64}}, *table, slots,
        kActualElems, nominal_groups, /*groups_scale_with_data=*/false);
    ADAMANT_CHECK(dev->Execute(launch).ok());
    const double elapsed = dev->MaxCompletion() - t0;
    for (BufferId id : {*k, *v, *table}) {
      ADAMANT_CHECK(dev->DeleteMemory(id).ok());
    }
    return elapsed;
  });
}

// (d)/(e): hash build / probe with an input-size sweep.
void HashBuildProbeBench(benchmark::State& state, DriverCombo combo,
                         bool probe) {
  const auto nominal = static_cast<double>(state.range(0));
  std::vector<int32_t> keys = RandomKeys(kActualElems, 1 << 30);
  const size_t slots = HashTableLayout::SlotsFor(kActualElems);
  RunPanel(state, combo, nominal, [&](SimulatedDevice* dev) {
    auto k = dev->PrepareMemory(kActualElems * 4);
    auto table = dev->PrepareMemory(HashTableLayout::BuildTableBytes(slots));
    ADAMANT_CHECK(k.ok() && table.ok());
    ADAMANT_CHECK(dev->PlaceData(*k, keys.data(), kActualElems * 4, 0).ok());
    ADAMANT_CHECK(
        dev->Execute(kernels::MakeFill(*table, HashTableLayout::kEmptyKey,
                                       HashTableLayout::BuildTableBytes(slots) /
                                           4))
            .ok());
    double elapsed;
    if (probe) {
      ADAMANT_CHECK(dev->Execute(kernels::MakeHashBuild(
                                     *k, kInvalidBuffer, *table, slots, 0,
                                     kActualElems))
                        .ok());
      auto left = dev->PrepareMemory(kActualElems * 8);
      auto right = dev->PrepareMemory(kActualElems * 8);
      auto count = dev->PrepareMemory(8);
      ADAMANT_CHECK(left.ok() && right.ok() && count.ok());
      const double t0 = dev->MaxCompletion();
      ADAMANT_CHECK(dev->Execute(kernels::MakeHashProbe(
                                     *k, *table, *left, *right, *count, slots,
                                     ProbeMode::kSemi, 0, kActualElems))
                        .ok());
      elapsed = dev->MaxCompletion() - t0;
      for (BufferId id : {*left, *right, *count}) {
        ADAMANT_CHECK(dev->DeleteMemory(id).ok());
      }
    } else {
      const double t0 = dev->MaxCompletion();
      ADAMANT_CHECK(dev->Execute(kernels::MakeHashBuild(
                                     *k, kInvalidBuffer, *table, slots, 0,
                                     kActualElems))
                        .ok());
      elapsed = dev->MaxCompletion() - t0;
    }
    ADAMANT_CHECK(dev->DeleteMemory(*k).ok());
    ADAMANT_CHECK(dev->DeleteMemory(*table).ok());
    return elapsed;
  });
}

void RegisterAll() {
  for (const DriverCombo& combo : kCombos) {
    benchmark::RegisterBenchmark(
        (std::string("fig9a/filter_bitmap/") + combo.name).c_str(),
        [combo](benchmark::State& s) { FilterBench(s, combo, false); })
        ->Arg(1 << 28)
        ->UseManualTime()
        ->Iterations(2);
    benchmark::RegisterBenchmark(
        (std::string("fig9b/filter_materialize/") + combo.name).c_str(),
        [combo](benchmark::State& s) { FilterBench(s, combo, true); })
        ->Arg(1 << 28)
        ->UseManualTime()
        ->Iterations(2);
    benchmark::RegisterBenchmark(
        (std::string("fig9c/hash_agg_groups/") + combo.name).c_str(),
        [combo](benchmark::State& s) { HashAggBench(s, combo); })
        ->RangeMultiplier(64)
        ->Range(1 << 4, 1 << 22)
        ->UseManualTime()
        ->Iterations(2);
    benchmark::RegisterBenchmark(
        (std::string("fig9d/hash_build/") + combo.name).c_str(),
        [combo](benchmark::State& s) { HashBuildProbeBench(s, combo, false); })
        ->RangeMultiplier(4)
        ->Range(1 << 24, 1 << 28)
        ->UseManualTime()
        ->Iterations(2);
    benchmark::RegisterBenchmark(
        (std::string("fig9e/hash_probe/") + combo.name).c_str(),
        [combo](benchmark::State& s) { HashBuildProbeBench(s, combo, true); })
        ->RangeMultiplier(4)
        ->Range(1 << 24, 1 << 28)
        ->UseManualTime()
        ->Iterations(2);
  }
}

}  // namespace
}  // namespace adamant::bench

int main(int argc, char** argv) {
  adamant::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
