// Parallel kernel variants: bit-identity property tests against the scalar
// reference, the simulated speedup the variants charge, plus WorkerPool
// unit tests.
//
// Every kernel with a parallel variant runs the same launch twice on a fresh
// parallel-native (openmp_cpu) device — once forced scalar, once forced
// parallel — across a size sweep covering 0, 1, tile-1, tile, tile+1,
// non-tile-multiples and larger sizes. Outputs must be byte-identical and
// failure Statuses (message included) must match, including the capacity
// overflow, gather-range, and hash-table error paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "device/device_manager.h"
#include "task/hash_table.h"
#include "task/kernel_registry.h"
#include "task/kernels.h"
#include "task/worker_pool.h"

namespace adamant {
namespace {

// Size sweep around the tile boundary (ParallelTileElems() == 16384): below
// 2 tiles the parallel variant falls back to scalar, so both the fallback
// and the genuinely tiled paths are exercised.
const size_t kSizes[] = {0,     1,     2,     63,    64,    1000,  16383,
                         16384, 16385, 32768, 40000, 49153, 100000};

/// Fresh openmp_cpu (parallel-native) device per run plus typed helpers.
/// Outputs are always pushed zero-filled so untouched tails compare equal.
struct Rig {
  std::unique_ptr<DeviceManager> manager;
  SimulatedDevice* dev = nullptr;

  explicit Rig(double data_scale = 1) {
    manager = std::make_unique<DeviceManager>();
    manager->SetDataScale(data_scale);
    auto id = manager->AddDriver(sim::DriverKind::kOpenMpCpu);
    ADAMANT_CHECK(id.ok()) << id.status().ToString();
    ADAMANT_CHECK(BindStandardKernels(manager->device(*id)).ok());
    dev = manager->device(*id);
  }

  BufferId Push(const void* data, size_t bytes) {
    auto buf = dev->PrepareMemory(std::max<size_t>(bytes, 1));
    ADAMANT_CHECK(buf.ok()) << buf.status().ToString();
    if (bytes > 0) {
      ADAMANT_CHECK(dev->PlaceData(*buf, data, bytes, 0).ok());
    }
    return *buf;
  }
  template <typename T>
  BufferId PushVec(const std::vector<T>& v) {
    return Push(v.data(), v.size() * sizeof(T));
  }
  BufferId PushZeros(size_t bytes) {
    std::vector<uint8_t> zeros(std::max<size_t>(bytes, 1), 0);
    return Push(zeros.data(), zeros.size());
  }
  std::vector<uint8_t> PullBytes(BufferId id, size_t bytes) {
    std::vector<uint8_t> out(bytes);
    if (bytes > 0) {
      ADAMANT_CHECK(dev->RetrieveData(id, out.data(), bytes, 0).ok());
    }
    return out;
  }
};

struct Launched {
  KernelLaunch launch;
  /// Buffers whose full contents must be bit-identical across variants.
  std::vector<std::pair<BufferId, size_t>> outputs;
};

using SetupFn = std::function<Launched(Rig&)>;

struct RunResult {
  Status status = Status::OK();
  std::vector<std::vector<uint8_t>> outputs;
};

RunResult RunVariant(KernelVariantRequest variant, const SetupFn& setup) {
  Rig rig;
  Launched l = setup(rig);
  l.launch.variant = variant;
  l.launch.num_threads = kDefaultKernelThreads;
  RunResult result;
  result.status = rig.dev->Execute(l.launch);
  if (result.status.ok()) {
    for (const auto& [id, bytes] : l.outputs) {
      result.outputs.push_back(rig.PullBytes(id, bytes));
    }
  }
  return result;
}

/// The property: scalar and parallel runs of the same launch agree on
/// Status (message included) and every output byte.
void ExpectParity(const SetupFn& setup, const std::string& what) {
  RunResult scalar = RunVariant(KernelVariantRequest::kScalar, setup);
  RunResult parallel = RunVariant(KernelVariantRequest::kParallel, setup);
  EXPECT_EQ(scalar.status.ok(), parallel.status.ok()) << what;
  EXPECT_EQ(scalar.status.ToString(), parallel.status.ToString()) << what;
  ASSERT_EQ(scalar.outputs.size(), parallel.outputs.size()) << what;
  for (size_t i = 0; i < scalar.outputs.size(); ++i) {
    EXPECT_EQ(scalar.outputs[i], parallel.outputs[i])
        << what << " output " << i;
  }
}

std::vector<int32_t> RandomInts(size_t n, uint64_t seed, int64_t lo,
                                int64_t hi) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.Uniform(lo, hi));
  return v;
}

// --- MAP -------------------------------------------------------------------

TEST(KernelVariantParity, Map) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 11 + n, -1000, 1000);
          BufferId in_buf = rig.PushVec(in);
          BufferId out = rig.PushZeros(n * 8);
          return Launched{kernels::MakeMap(in_buf, kInvalidBuffer, out,
                                           MapOp::kMulScalar,
                                           ElementType::kInt32,
                                           ElementType::kInt64, -7, n),
                          {{out, n * 8}}};
        },
        "map mul_scalar n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, MapNeqPrevCrossesTileBoundary) {
  // kNeqPrev reads in0[i-1]; the first row of every tile except tile 0
  // reads across the tile boundary.
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 13 + n, 0, 3);  // repeats
          BufferId in_buf = rig.PushVec(in);
          BufferId out = rig.PushZeros(n * 4);
          return Launched{kernels::MakeMap(in_buf, kInvalidBuffer, out,
                                           MapOp::kNeqPrev,
                                           ElementType::kInt32,
                                           ElementType::kInt32, 0, n),
                          {{out, n * 4}}};
        },
        "map neq_prev n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, MapRespectsDeviceCount) {
  // has_count_in: the device-resident count truncates the launch; the
  // parallel variant must tile min(work_items, count), not work_items.
  const size_t n = 50000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int64_t> count = {33000};
        BufferId count_buf = rig.PushVec(count);
        std::vector<int32_t> in = RandomInts(n, 17, -50, 50);
        BufferId in_buf = rig.PushVec(in);
        BufferId out = rig.PushZeros(n * 4);
        return Launched{kernels::MakeMap(in_buf, kInvalidBuffer, out,
                                         MapOp::kAddScalar,
                                         ElementType::kInt32,
                                         ElementType::kInt32, 3, n, count_buf),
                        {{out, n * 4}}};
      },
      "map count_in");
}

// --- FILTER_BITMAP ---------------------------------------------------------

TEST(KernelVariantParity, FilterBitmap) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 19 + n, 0, 1000);
          BufferId in_buf = rig.PushVec(in);
          const size_t bitmap_bytes = bit_util::BytesForBits(n);
          BufferId bitmap = rig.PushZeros(bitmap_bytes);
          return Launched{kernels::MakeFilterBitmap(in_buf, bitmap,
                                                    CmpOp::kBetween,
                                                    ElementType::kInt32, 100,
                                                    700, false, n),
                          {{bitmap, bitmap_bytes}}};
        },
        "filter_bitmap n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, FilterBitmapCombineAnd) {
  for (size_t n : {size_t{40000}, size_t{100000}}) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 23 + n, 0, 1000);
          BufferId in_buf = rig.PushVec(in);
          const size_t bitmap_bytes = bit_util::BytesForBits(n);
          // Pre-populated bitmap the predicate must AND into.
          std::vector<uint8_t> prior(bitmap_bytes);
          Rng rng(29);
          for (auto& b : prior) b = static_cast<uint8_t>(rng.Uniform(0, 255));
          BufferId bitmap = rig.PushVec(prior);
          return Launched{kernels::MakeFilterBitmap(in_buf, bitmap, CmpOp::kGe,
                                                    ElementType::kInt32, 500,
                                                    0, true, n),
                          {{bitmap, bitmap_bytes}}};
        },
        "filter_bitmap combine_and n=" + std::to_string(n));
  }
}

// --- FILTER_POSITION -------------------------------------------------------

TEST(KernelVariantParity, FilterPosition) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 31 + n, 0, 1000);
          BufferId in_buf = rig.PushVec(in);
          BufferId positions = rig.PushZeros(n * 4);
          BufferId count = rig.PushZeros(8);
          return Launched{kernels::MakeFilterPosition(in_buf, positions, count,
                                                      CmpOp::kLt,
                                                      ElementType::kInt32, 500,
                                                      0, n),
                          {{positions, n * 4}, {count, 8}}};
        },
        "filter_position n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, FilterPositionOverflowErrorParity) {
  // Capacity for ~n/8 positions, ~n/2 selected: the overflow row reported by
  // the parallel variant must equal the scalar failure row.
  const size_t n = 60000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> in = RandomInts(n, 37, 0, 1000);
        BufferId in_buf = rig.PushVec(in);
        BufferId positions = rig.PushZeros((n / 8) * 4);
        BufferId count = rig.PushZeros(8);
        return Launched{kernels::MakeFilterPosition(in_buf, positions, count,
                                                    CmpOp::kLt,
                                                    ElementType::kInt32, 500,
                                                    0, n),
                        {}};
      },
      "filter_position overflow");
}

// --- MATERIALIZE -----------------------------------------------------------

TEST(KernelVariantParity, Materialize) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 41 + n, -500, 500);
          BufferId in_buf = rig.PushVec(in);
          const size_t bitmap_bytes = bit_util::BytesForBits(n);
          std::vector<uint8_t> bitmap_host(std::max<size_t>(bitmap_bytes, 1));
          Rng rng(43 + n);
          for (auto& b : bitmap_host) {
            b = static_cast<uint8_t>(rng.Uniform(0, 255));
          }
          BufferId bitmap = rig.Push(bitmap_host.data(), bitmap_bytes);
          BufferId out = rig.PushZeros(n * 4);
          BufferId count = rig.PushZeros(8);
          return Launched{kernels::MakeMaterialize(in_buf, bitmap, out, count,
                                                   ElementType::kInt32, n),
                          {{out, n * 4}, {count, 8}}};
        },
        "materialize n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, MaterializeOverflowErrorParity) {
  const size_t n = 60000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> in = RandomInts(n, 47, -500, 500);
        BufferId in_buf = rig.PushVec(in);
        const size_t bitmap_bytes = bit_util::BytesForBits(n);
        std::vector<uint8_t> bitmap_host(bitmap_bytes, 0xFF);  // all selected
        BufferId bitmap = rig.Push(bitmap_host.data(), bitmap_bytes);
        BufferId out = rig.PushZeros((n / 3) * 4);
        BufferId count = rig.PushZeros(8);
        return Launched{kernels::MakeMaterialize(in_buf, bitmap, out, count,
                                                 ElementType::kInt32, n),
                        {}};
      },
      "materialize overflow");
}

// --- MATERIALIZE_POSITION --------------------------------------------------

TEST(KernelVariantParity, MaterializePosition) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 53 + n, -9999, 9999);
          std::vector<int32_t> pos(n);
          Rng rng(59 + n);
          for (auto& p : pos) {
            p = n > 0 ? static_cast<int32_t>(rng.Uniform(0, n - 1)) : 0;
          }
          BufferId in_buf = rig.PushVec(in);
          BufferId pos_buf = rig.PushVec(pos);
          BufferId out = rig.PushZeros(n * 4);
          return Launched{kernels::MakeMaterializePosition(
                              in_buf, pos_buf, out, ElementType::kInt32, n),
                          {{out, n * 4}}};
        },
        "materialize_position n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, MaterializePositionBadGatherErrorParity) {
  // The only out-of-range position sits in a late tile: the pool must
  // report exactly that row (lowest failing tile, first bad row in it).
  const size_t n = 60000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> in = RandomInts(n, 61, 0, 100);
        std::vector<int32_t> pos(n, 5);
        pos[45000] = static_cast<int32_t>(n + 7);  // out of range, tile 2
        BufferId in_buf = rig.PushVec(in);
        BufferId pos_buf = rig.PushVec(pos);
        BufferId out = rig.PushZeros(n * 4);
        return Launched{kernels::MakeMaterializePosition(
                            in_buf, pos_buf, out, ElementType::kInt32, n),
                        {}};
      },
      "materialize_position bad gather");
}

// --- PREFIX_SUM ------------------------------------------------------------

TEST(KernelVariantParity, PrefixSum) {
  for (size_t n : kSizes) {
    for (bool exclusive : {false, true}) {
      ExpectParity(
          [n, exclusive](Rig& rig) {
            // Large magnitudes force int32 wraparound; the parallel tile
            // bases must reproduce the scalar accumulator mod 2^32.
            std::vector<int32_t> in =
                RandomInts(n, 67 + n, -(int64_t{1} << 30), int64_t{1} << 30);
            BufferId in_buf = rig.PushVec(in);
            BufferId out = rig.PushZeros(n * 4);
            return Launched{
                kernels::MakePrefixSum(in_buf, out, exclusive, n),
                {{out, n * 4}}};
          },
          "prefix_sum n=" + std::to_string(n) +
              (exclusive ? " exclusive" : " inclusive"));
    }
  }
}

// --- AGG_BLOCK -------------------------------------------------------------

TEST(KernelVariantParity, AggBlock) {
  for (size_t n : kSizes) {
    for (AggOp op : {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax}) {
      ExpectParity(
          [n, op](Rig& rig) {
            std::vector<int32_t> in = RandomInts(n, 71 + n, -100000, 100000);
            BufferId in_buf = rig.PushVec(in);
            BufferId acc = rig.PushZeros(8);
            return Launched{kernels::MakeAggBlock(in_buf, acc, op,
                                                  ElementType::kInt32,
                                                  /*init=*/true, n),
                            {{acc, 8}}};
          },
          "agg_block op=" + std::to_string(static_cast<int>(op)) +
              " n=" + std::to_string(n));
    }
  }
}

TEST(KernelVariantParity, AggBlockAccumulatesWithoutInit) {
  // init=false folds into the accumulator's prior value.
  const size_t n = 50000;
  for (AggOp op : {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax}) {
    ExpectParity(
        [n, op](Rig& rig) {
          std::vector<int32_t> in = RandomInts(n, 73, -100, 100);
          BufferId in_buf = rig.PushVec(in);
          std::vector<int64_t> prior = {-42};
          BufferId acc = rig.PushVec(prior);
          return Launched{kernels::MakeAggBlock(in_buf, acc, op,
                                                ElementType::kInt32,
                                                /*init=*/false, n),
                          {{acc, 8}}};
        },
        "agg_block no-init op=" + std::to_string(static_cast<int>(op)));
  }
}

// --- HASH_BUILD ------------------------------------------------------------

std::vector<int32_t> SentinelTable(size_t slots) {
  return std::vector<int32_t>(HashTableLayout::BuildTableBytes(slots) / 4,
                              HashTableLayout::kEmptyKey);
}

TEST(KernelVariantParity, HashBuild) {
  for (size_t n : kSizes) {
    ExpectParity(
        [n](Rig& rig) {
          // Duplicate-heavy keys: linear-probe layout is insertion-order
          // dependent, so the whole table must match byte for byte.
          std::vector<int32_t> keys = RandomInts(n, 79 + n, 1, 5000);
          const size_t slots = HashTableLayout::SlotsFor(std::max<size_t>(n, 1));
          BufferId keys_buf = rig.PushVec(keys);
          BufferId table = rig.PushVec(SentinelTable(slots));
          return Launched{kernels::MakeHashBuild(keys_buf, kInvalidBuffer,
                                                 table, slots, 100, n),
                          {{table, HashTableLayout::BuildTableBytes(slots)}}};
        },
        "hash_build n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, HashBuildWithPayload) {
  const size_t n = 50000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> keys = RandomInts(n, 83, 1, 1 << 28);
        std::vector<int32_t> payload = RandomInts(n, 89, 0, 1 << 20);
        const size_t slots = HashTableLayout::SlotsFor(n);
        BufferId keys_buf = rig.PushVec(keys);
        BufferId payload_buf = rig.PushVec(payload);
        BufferId table = rig.PushVec(SentinelTable(slots));
        return Launched{kernels::MakeHashBuild(keys_buf, payload_buf, table,
                                               slots, 0, n),
                        {{table, HashTableLayout::BuildTableBytes(slots)}}};
      },
      "hash_build payload");
}

TEST(KernelVariantParity, HashBuildSentinelKeyErrorParity) {
  const size_t n = 50000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> keys = RandomInts(n, 97, 1, 1000);
        keys[40000] = HashTableLayout::kEmptyKey;
        const size_t slots = HashTableLayout::SlotsFor(n);
        BufferId keys_buf = rig.PushVec(keys);
        BufferId table = rig.PushVec(SentinelTable(slots));
        return Launched{kernels::MakeHashBuild(keys_buf, kInvalidBuffer, table,
                                               slots, 0, n),
                        {}};
      },
      "hash_build sentinel key");
}

TEST(KernelVariantParity, HashBuildTableFullErrorParity) {
  // More rows than slots: both variants must fail with the same message.
  const size_t n = 50000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> keys = RandomInts(n, 101, 1, 1 << 28);
        const size_t slots = 16384;
        BufferId keys_buf = rig.PushVec(keys);
        BufferId table = rig.PushVec(SentinelTable(slots));
        return Launched{kernels::MakeHashBuild(keys_buf, kInvalidBuffer, table,
                                               slots, 0, n),
                        {}};
      },
      "hash_build table full");
}

// --- HASH_PROBE ------------------------------------------------------------

/// Builds (scalar, so both runs see the identical table) and returns the
/// filled build table over `build_keys`.
BufferId BuildScalarTable(Rig& rig, const std::vector<int32_t>& build_keys,
                          size_t slots) {
  BufferId table = rig.PushVec(SentinelTable(slots));
  KernelLaunch build = kernels::MakeHashBuild(
      rig.PushVec(build_keys), kInvalidBuffer, table, slots, 0,
      build_keys.size());
  build.variant = KernelVariantRequest::kScalar;
  ADAMANT_CHECK(rig.dev->Execute(build).ok());
  return table;
}

TEST(KernelVariantParity, HashProbe) {
  for (size_t n : kSizes) {
    for (ProbeMode mode : {ProbeMode::kAll, ProbeMode::kSemi}) {
      ExpectParity(
          [n, mode](Rig& rig) {
            const size_t build_n = std::max<size_t>(n / 2, 8);
            std::vector<int32_t> build_keys =
                RandomInts(build_n, 103 + n, 1, 4000);
            std::vector<int32_t> probe_keys = RandomInts(n, 107 + n, 1, 4000);
            const size_t slots = HashTableLayout::SlotsFor(build_n);
            BufferId table = BuildScalarTable(rig, build_keys, slots);
            BufferId probe_buf = rig.PushVec(probe_keys);
            // kAll with duplicate keys fans out; 16x capacity is ample.
            const size_t cap = std::max<size_t>(n, 1) * 16;
            BufferId left = rig.PushZeros(cap * 4);
            BufferId right = rig.PushZeros(cap * 4);
            BufferId count = rig.PushZeros(8);
            return Launched{kernels::MakeHashProbe(probe_buf, table, left,
                                                   right, count, slots, mode,
                                                   77, n),
                            {{left, cap * 4}, {right, cap * 4}, {count, 8}}};
          },
          std::string("hash_probe ") +
              (mode == ProbeMode::kSemi ? "semi" : "all") +
              " n=" + std::to_string(n));
    }
  }
}

TEST(KernelVariantParity, HashProbeOverflowErrorParity) {
  const size_t n = 60000;
  ExpectParity(
      [n](Rig& rig) {
        std::vector<int32_t> build_keys = RandomInts(n / 2, 109, 1, 2000);
        std::vector<int32_t> probe_keys = RandomInts(n, 113, 1, 2000);
        const size_t slots = HashTableLayout::SlotsFor(n / 2);
        BufferId table = BuildScalarTable(rig, build_keys, slots);
        BufferId probe_buf = rig.PushVec(probe_keys);
        BufferId left = rig.PushZeros((n / 16) * 4);  // far too small
        BufferId right = rig.PushZeros((n / 16) * 4);
        BufferId count = rig.PushZeros(8);
        return Launched{kernels::MakeHashProbe(probe_buf, table, left, right,
                                               count, slots, ProbeMode::kAll,
                                               0, n),
                        {}};
      },
      "hash_probe overflow");
}

// --- Variant registry & device policy --------------------------------------

TEST(KernelVariantRegistry, EveryParallelKernelHasAScalarReference) {
  EXPECT_EQ(kernels::ParallelKernelNames().size(), 10u);
  for (const std::string& name : kernels::ParallelKernelNames()) {
    EXPECT_TRUE(kernels::HasKernel(name)) << name;
    EXPECT_TRUE(kernels::HasParallelKernel(name)) << name;
    EXPECT_TRUE(kernels::GetParallelKernelFn(name) != nullptr) << name;
  }
  EXPECT_FALSE(kernels::HasParallelKernel("hash_agg"));
  EXPECT_FALSE(kernels::HasParallelKernel("no_such_kernel"));
}

TEST(KernelVariantRegistry, CpuDriversAreParallelNativeGpusScalarNative) {
  DeviceManager manager;
  struct Want {
    sim::DriverKind kind;
    KernelVariant native;
  };
  const Want kWants[] = {
      {sim::DriverKind::kOpenMpCpu, KernelVariant::kParallel},
      {sim::DriverKind::kOpenClCpu, KernelVariant::kParallel},
      {sim::DriverKind::kCudaGpu, KernelVariant::kScalar},
      {sim::DriverKind::kOpenClGpu, KernelVariant::kScalar},
  };
  for (const Want& want : kWants) {
    auto id = manager.AddDriver(want.kind);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*id)).ok());
    SimulatedDevice* dev = manager.device(*id);
    EXPECT_EQ(dev->default_kernel_variant(), want.native)
        << dev->perf_model().name;
    EXPECT_EQ(dev->kernel_threads(), kDefaultKernelThreads);
    EXPECT_TRUE(dev->HasParallelKernel("map")) << dev->perf_model().name;
  }
}

TEST(KernelVariantRegistry, ParallelLaunchCounterTracksDispatch) {
  Rig rig;
  const size_t n = 50000;
  std::vector<int32_t> in = RandomInts(n, 127, 0, 100);
  BufferId in_buf = rig.PushVec(in);
  BufferId out = rig.PushZeros(n * 4);
  KernelLaunch launch =
      kernels::MakeMap(in_buf, kInvalidBuffer, out, MapOp::kAddScalar,
                       ElementType::kInt32, ElementType::kInt32, 1, n);
  launch.variant = KernelVariantRequest::kScalar;
  ASSERT_TRUE(rig.dev->Execute(launch).ok());
  EXPECT_EQ(rig.dev->parallel_launches(), 0u);
  launch.variant = KernelVariantRequest::kAuto;  // openmp_cpu -> parallel
  ASSERT_TRUE(rig.dev->Execute(launch).ok());
  EXPECT_EQ(rig.dev->parallel_launches(), 1u);
}

// --- Simulated speedup gates -----------------------------------------------
//
// 2^22 keys executed and charged as 2^25, the chunk size of the SF >= 10
// queries: every parallel variant takes the parallel dispatch path, and
// map, filter_bitmap and agg_block charge >= 2x less simulated body time
// than scalar (the model predicts 3.08x at 4 threads). At 4096 elements,
// below two tiles, the parallel variant falls back to scalar and may
// charge at most 5% more.

constexpr size_t kLargeElems = size_t{1} << 22;
constexpr size_t kNominalElems = size_t{1} << 25;
constexpr size_t kSmallElems = 4096;

const std::vector<int32_t>& SpeedupKeys() {
  static const std::vector<int32_t>* const kKeys =
      new std::vector<int32_t>(RandomInts(kLargeElems, 20260805, 1, 1 << 30));
  return *kKeys;
}

/// The launch of one kernel over the first `n` keys; setup kernels (a
/// bitmap to materialize by, a filled table to probe) run before it.
using SpeedupCase = std::function<KernelLaunch(Rig&, size_t n)>;

std::vector<std::pair<const char*, SpeedupCase>> SpeedupCases() {
  auto keys = [](Rig& rig, size_t n) {
    return rig.Push(SpeedupKeys().data(), n * 4);
  };
  auto table = [keys](Rig& rig, size_t n, bool insert) {
    const size_t slots = HashTableLayout::SlotsFor(n);
    BufferId t = rig.PushVec(SentinelTable(slots));
    if (insert) {
      ADAMANT_CHECK(rig.dev
                        ->Execute(kernels::MakeHashBuild(
                            keys(rig, n), kInvalidBuffer, t, slots, 0, n))
                        .ok());
    }
    return std::make_pair(t, slots);
  };
  return {
      {"map",
       [keys](Rig& rig, size_t n) {
         return kernels::MakeMap(keys(rig, n), kInvalidBuffer,
                                 rig.PushZeros(n * 4), MapOp::kAddScalar,
                                 ElementType::kInt32, ElementType::kInt32, 7,
                                 n);
       }},
      {"filter_bitmap",
       [keys](Rig& rig, size_t n) {
         return kernels::MakeFilterBitmap(
             keys(rig, n), rig.PushZeros(bit_util::BytesForBits(n)),
             CmpOp::kLt, ElementType::kInt32, 1 << 29, 0, false, n);
       }},
      {"filter_position",
       [keys](Rig& rig, size_t n) {
         return kernels::MakeFilterPosition(
             keys(rig, n), rig.PushZeros(n * 4), rig.PushZeros(8), CmpOp::kLt,
             ElementType::kInt32, 1 << 29, 0, n);
       }},
      {"materialize",
       [keys](Rig& rig, size_t n) {
         BufferId in = keys(rig, n);
         BufferId bitmap = rig.PushZeros(bit_util::BytesForBits(n));
         ADAMANT_CHECK(rig.dev
                           ->Execute(kernels::MakeFilterBitmap(
                               in, bitmap, CmpOp::kLt, ElementType::kInt32,
                               1 << 29, 0, false, n))
                           .ok());
         return kernels::MakeMaterialize(in, bitmap, rig.PushZeros(n * 4),
                                         rig.PushZeros(8),
                                         ElementType::kInt32, n);
       }},
      {"materialize_position",
       [keys](Rig& rig, size_t n) {
         std::vector<int32_t> positions(n);
         for (size_t i = 0; i < n; ++i) {
           positions[i] = static_cast<int32_t>(n - 1 - i);
         }
         return kernels::MakeMaterializePosition(
             keys(rig, n), rig.PushVec(positions), rig.PushZeros(n * 4),
             ElementType::kInt32, n);
       }},
      {"prefix_sum",
       [keys](Rig& rig, size_t n) {
         return kernels::MakePrefixSum(keys(rig, n), rig.PushZeros(n * 4),
                                       true, n);
       }},
      {"agg_block",
       [keys](Rig& rig, size_t n) {
         return kernels::MakeAggBlock(keys(rig, n), rig.PushZeros(8),
                                      AggOp::kSum, ElementType::kInt32, true,
                                      n);
       }},
      {"hash_build",
       [keys, table](Rig& rig, size_t n) {
         const auto [t, slots] = table(rig, n, /*insert=*/false);
         return kernels::MakeHashBuild(keys(rig, n), kInvalidBuffer, t, slots,
                                       0, n);
       }},
      {"hash_probe",
       [keys, table](Rig& rig, size_t n) {
         const auto [t, slots] = table(rig, n, /*insert=*/true);
         return kernels::MakeHashProbe(keys(rig, n), t, rig.PushZeros(n * 4),
                                       rig.PushZeros(n * 4), rig.PushZeros(8),
                                       slots, ProbeMode::kSemi, 0, n);
       }},
  };
}

struct BodyTime {
  double sim_us = 0;
  bool parallel_dispatch = false;
};

/// Simulated body time of one launch with `variant` forced, on a fresh
/// openmp_cpu device charging `nominal` elements for `n`.
BodyTime MeasureBody(const SpeedupCase& make, KernelVariantRequest variant,
                     size_t n, size_t nominal) {
  Rig rig(static_cast<double>(nominal) / static_cast<double>(n));
  KernelLaunch launch = make(rig, n);
  launch.variant = variant;
  launch.num_threads = kDefaultKernelThreads;
  const double body_before = rig.dev->kernel_body_time();
  const size_t parallel_before = rig.dev->parallel_launches();
  ADAMANT_CHECK(rig.dev->Execute(launch).ok()) << launch.kernel_name;
  return {rig.dev->kernel_body_time() - body_before,
          rig.dev->parallel_launches() > parallel_before};
}

TEST(KernelVariantSpeedup, ParallelVariantsChargeLessAtChunkSize) {
  for (const auto& [name, make] : SpeedupCases()) {
    const std::string kernel = name;
    const BodyTime scalar = MeasureBody(make, KernelVariantRequest::kScalar,
                                        kLargeElems, kNominalElems);
    const BodyTime parallel = MeasureBody(
        make, KernelVariantRequest::kParallel, kLargeElems, kNominalElems);
    EXPECT_TRUE(parallel.parallel_dispatch) << kernel;
    if (kernel == "map" || kernel == "filter_bitmap" ||
        kernel == "agg_block") {
      EXPECT_GE(scalar.sim_us / parallel.sim_us, 2.0) << kernel;
    }
  }
}

TEST(KernelVariantSpeedup, SmallLaunchesFallBackToScalarCost) {
  for (const auto& [name, make] : SpeedupCases()) {
    const BodyTime scalar = MeasureBody(make, KernelVariantRequest::kScalar,
                                        kSmallElems, kSmallElems);
    const BodyTime parallel = MeasureBody(
        make, KernelVariantRequest::kParallel, kSmallElems, kSmallElems);
    EXPECT_LE(parallel.sim_us, scalar.sim_us * 1.05) << name;
  }
}

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTileExactlyOnce) {
  constexpr size_t kTiles = 257;
  std::vector<std::atomic<int>> hits(kTiles);
  for (auto& h : hits) h.store(0);
  Status status = task::WorkerPool::Global().ParallelTiles(
      kTiles, 4, "test", [&](size_t tile) {
        hits[tile].fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  for (size_t i = 0; i < kTiles; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "tile " << i;
  }
  EXPECT_GE(task::WorkerPool::Global().worker_count(), 2);
}

TEST(WorkerPoolTest, ZeroTilesIsANoOp) {
  bool called = false;
  Status status = task::WorkerPool::Global().ParallelTiles(
      0, 4, "test", [&](size_t) {
        called = true;
        return Status::OK();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, SingleThreadBudgetRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  Status status = task::WorkerPool::Global().ParallelTiles(
      8, 1, "test", [&](size_t tile) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(tile);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WorkerPoolTest, LowestFailingTileWinsDeterministically) {
  // Tiles 3, 7 and 11 fail; the region must always report tile 3's error,
  // regardless of scheduling. Repeat to shake out races.
  for (int round = 0; round < 25; ++round) {
    Status status = task::WorkerPool::Global().ParallelTiles(
        16, 4, "test", [&](size_t tile) {
          if (tile == 3 || tile == 7 || tile == 11) {
            return Status::ExecutionError("tile " + std::to_string(tile) +
                                          " failed");
          }
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.ToString(), "Execution error: tile 3 failed")
        << "round " << round;
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossRegions) {
  std::atomic<size_t> total{0};
  for (int region = 0; region < 50; ++region) {
    Status status = task::WorkerPool::Global().ParallelTiles(
        10, 3, "test", [&](size_t) {
          total.fetch_add(1);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << "region " << region;
  }
  EXPECT_EQ(total.load(), 500u);
}

TEST(WorkerPoolTest, ConcurrentSubmittersSerializeSafely) {
  // Several threads submit regions at once (the device-parallel driver's
  // partition threads do exactly this); regions must not interleave tiles.
  constexpr int kThreads = 4;
  constexpr int kRegionsEach = 8;
  std::atomic<size_t> total{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int r = 0; r < kRegionsEach; ++r) {
        Status status = task::WorkerPool::Global().ParallelTiles(
            20, 4, "test", [&](size_t) {
              total.fetch_add(1);
              return Status::OK();
            });
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total.load(), static_cast<size_t>(kThreads) * kRegionsEach * 20);
}

}  // namespace
}  // namespace adamant
