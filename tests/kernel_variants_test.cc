// Kernel thread budgets: every kernel checked against the per-row reference
// (kernel_reference.h) at budgets of one and four threads, the simulated
// speedup a four-thread budget charges, plus WorkerPool unit tests.
//
// Each launch runs three times on fresh openmp_cpu devices (own budget four
// threads): through the per-row reference on host copies of its buffers, at
// a budget of one thread (one range), and at four threads (tiles from two
// tiles up). The size sweeps cover 0, 1, the bitmap-word edges 63/64/65,
// tile-1, tile, tile+1 and larger sizes. Outputs must be byte-identical and
// failure Statuses (message included) must match, including the capacity
// overflow, gather-range, and hash-table error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "device/device_manager.h"
#include "kernel_reference.h"
#include "task/hash_table.h"
#include "task/kernel_registry.h"
#include "task/kernels.h"
#include "task/kernels_fused.h"
#include "task/worker_pool.h"

namespace adamant {
namespace {

// Size sweep around the tile boundary (ParallelTileElems() == 16384): below
// 2 tiles a four-thread launch runs as one range like a one-thread one, so
// both the one-range and the tiled paths are exercised.
const size_t kSizes[] = {0,     1,     2,     63,    64,    1000,  16383,
                         16384, 16385, 32768, 40000, 49153, 100000};

/// Fresh device per run (openmp_cpu unless `driver` says otherwise) plus
/// typed helpers. Outputs are always pushed zero-filled so untouched tails
/// compare equal.
struct Rig {
  std::unique_ptr<DeviceManager> manager;
  SimulatedDevice* dev = nullptr;

  explicit Rig(double data_scale = 1,
               sim::DriverKind driver = sim::DriverKind::kOpenMpCpu) {
    manager = std::make_unique<DeviceManager>();
    manager->SetDataScale(data_scale);
    auto id = manager->AddDriver(driver);
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
    sizes[*buf] = std::max<size_t>(bytes, 1);
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

  /// Bytes of every buffer pushed.
  std::map<BufferId, size_t> sizes;
};

struct Launched {
  KernelLaunch launch;
  /// Buffers whose full contents must be bit-identical across budgets.
  std::vector<std::pair<BufferId, size_t>> outputs;
};

using SetupFn = std::function<Launched(Rig&)>;

struct RunResult {
  Status status = Status::OK();
  std::vector<std::vector<uint8_t>> outputs;
};

RunResult RunWithThreads(int threads, const SetupFn& setup) {
  Rig rig;
  Launched l = setup(rig);
  l.launch.num_threads = threads;
  RunResult result;
  result.status = rig.dev->Execute(l.launch);
  if (result.status.ok()) {
    for (const auto& [id, bytes] : l.outputs) {
      result.outputs.push_back(rig.PullBytes(id, bytes));
    }
  }
  return result;
}

/// Runs the launch through the per-row reference on host copies of its
/// buffers as `setup` left them on the device.
RunResult RunReference(const SetupFn& setup) {
  Rig rig;
  Launched l = setup(rig);
  std::map<BufferId, std::vector<uint8_t>> host;
  std::vector<void*> pointers(l.launch.args.size(), nullptr);
  std::vector<size_t> sizes(l.launch.args.size(), 0);
  for (size_t i = 0; i < l.launch.args.size(); ++i) {
    const KernelArg& arg = l.launch.args[i];
    if (!arg.is_buffer()) continue;
    auto [it, fresh] = host.try_emplace(arg.buffer);
    if (fresh) {
      it->second = rig.PullBytes(arg.buffer, rig.sizes.at(arg.buffer));
    }
    pointers[i] = it->second.data();
    sizes[i] = it->second.size();
  }
  KernelExecContext ctx(std::move(pointers), std::move(sizes), l.launch.args,
                        l.launch.work_items);
  const HostKernelFn fn = reference::KernelFn(l.launch.kernel_name);
  ADAMANT_CHECK(fn != nullptr) << l.launch.kernel_name;
  RunResult result;
  result.status = fn(&ctx).WithContext("kernel '" + l.launch.kernel_name +
                                       "' on " + rig.dev->name());
  if (result.status.ok()) {
    for (const auto& [id, bytes] : l.outputs) {
      const std::vector<uint8_t>& buf = host.at(id);
      result.outputs.emplace_back(buf.begin(), buf.begin() + bytes);
    }
  }
  return result;
}

void ExpectSameRun(const RunResult& want, const RunResult& got,
                   const std::string& what) {
  EXPECT_EQ(want.status.ok(), got.status.ok()) << what;
  EXPECT_EQ(want.status.ToString(), got.status.ToString()) << what;
  ASSERT_EQ(want.outputs.size(), got.outputs.size()) << what;
  for (size_t i = 0; i < want.outputs.size(); ++i) {
    EXPECT_EQ(want.outputs[i], got.outputs[i]) << what << " output " << i;
  }
}

/// The property: the per-row reference, a one-thread run and a four-thread
/// run of the same launch agree on Status (message included) and every
/// output byte.
void ExpectParity(const SetupFn& setup, const std::string& what) {
  const RunResult reference = RunReference(setup);
  ExpectSameRun(reference, RunWithThreads(1, setup), what + " budget 1");
  ExpectSameRun(reference, RunWithThreads(kDefaultKernelThreads, setup),
                what + " budget 4");
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
  // has_count_in: the device-resident count truncates the launch; a tiled
  // run must tile min(work_items, count), not work_items.
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
  // a tiled run must equal the one-range failure row.
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
            // Large magnitudes force int32 wraparound; the tile bases must
            // reproduce the one-range accumulator mod 2^32.
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
  // More rows than slots: both budgets must fail with the same message.
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

TEST(KernelVariantParity, HashBuildTableFullBeforeSentinel) {
  // The 16-slot table fills at row 16, long before the sentinel key at row
  // 30,000: the error that comes first in row order wins, so a tiled run
  // reports "hash table full" like scalar, not the sentinel key.
  const size_t n = 40000;
  const SetupFn setup = [n](Rig& rig) {
    std::vector<int32_t> keys = RandomInts(n, 131, 1, 1 << 28);
    keys[30000] = HashTableLayout::kEmptyKey;
    BufferId keys_buf = rig.PushVec(keys);
    BufferId table = rig.PushVec(SentinelTable(16));
    return Launched{
        kernels::MakeHashBuild(keys_buf, kInvalidBuffer, table, 16, 0, n), {}};
  };
  ExpectParity(setup, "hash_build table full before sentinel");
  const RunResult tiled = RunWithThreads(kDefaultKernelThreads, setup);
  EXPECT_TRUE(tiled.status.IsExecutionError()) << tiled.status.ToString();
  EXPECT_NE(tiled.status.message().find("hash table full (16 slots)"),
            std::string::npos)
      << tiled.status.ToString();
}

// --- HASH_PROBE ------------------------------------------------------------

/// Builds (on one thread, so both runs see the identical table) and returns
/// the filled build table over `build_keys`.
BufferId BuildScalarTable(Rig& rig, const std::vector<int32_t>& build_keys,
                          size_t slots) {
  BufferId table = rig.PushVec(SentinelTable(slots));
  KernelLaunch build = kernels::MakeHashBuild(
      rig.PushVec(build_keys), kInvalidBuffer, table, slots, 0,
      build_keys.size());
  build.num_threads = 1;
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

// --- FUSED / FUSED_AGG -----------------------------------------------------

FusedStep Step(FusedStep::Op op, int64_t a, int64_t b = 0, int64_t c = 0,
               int32_t src0 = -1, int32_t src1 = -1) {
  FusedStep step;
  step.op = op;
  step.a = a;
  step.b = b;
  step.c = c;
  step.src0 = src0;
  step.src1 = src1;
  return step;
}

/// load price, load pct; filter price BETWEEN 100 AND 700; map
/// price * (100 - pct) / 100 as int64; then `terminal` over the map (reg 3).
std::vector<FusedStep> FusedRecipe(const FusedStep& terminal) {
  return {Step(FusedStep::Op::kLoad, 0,
               static_cast<int64_t>(ElementType::kInt32)),
          Step(FusedStep::Op::kLoad, 1,
               static_cast<int64_t>(ElementType::kInt32)),
          Step(FusedStep::Op::kFilter, static_cast<int64_t>(CmpOp::kBetween),
               100, 700, 0),
          Step(FusedStep::Op::kMap,
               static_cast<int64_t>(MapOp::kMulPctComplement), 0,
               static_cast<int64_t>(ElementType::kInt64), 0, 1),
          terminal};
}

/// A stream (load -> filter -> map -> emit) launch over n rows whose output
/// holds `cap` values.
Launched FusedStream(Rig& rig, size_t n, size_t cap, uint64_t seed,
                     BufferId count_in = kInvalidBuffer) {
  BufferId price = rig.PushVec(RandomInts(n, seed, 0, 1000));
  BufferId pct = rig.PushVec(RandomInts(n, seed + 1, 0, 10));
  BufferId out = rig.PushZeros(cap * 8);
  BufferId count = rig.PushZeros(8);
  const FusedStep emit = Step(FusedStep::Op::kEmit,
                              static_cast<int64_t>(ElementType::kInt64), 0, 0,
                              3);
  return Launched{kernels::MakeFused({price, pct}, out, count,
                                     FusedRecipe(emit), false, n, count_in),
                  {{out, cap * 8}, {count, 8}}};
}

TEST(KernelVariantParity, FusedStream) {
  for (size_t n : kSizes) {
    ExpectParity([n](Rig& rig) { return FusedStream(rig, n, n, 137 + n); },
                 "fused stream n=" + std::to_string(n));
  }
}

TEST(KernelVariantParity, FusedStreamOverflowErrorParity) {
  // About 60% of the rows pass the filter into room for an eighth of them.
  const size_t n = 60000;
  ExpectParity(
      [n](Rig& rig) {
        Launched l = FusedStream(rig, n, n / 8, 139);
        l.outputs.clear();
        return l;
      },
      "fused stream overflow");
}

TEST(KernelVariantParity, FusedAgg) {
  for (size_t n : kSizes) {
    for (AggOp op : {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax}) {
      ExpectParity(
          [n, op](Rig& rig) {
            BufferId price = rig.PushVec(RandomInts(n, 149 + n, 0, 1000));
            BufferId pct = rig.PushVec(RandomInts(n, 151 + n, 0, 10));
            std::vector<int64_t> prior = {-42};
            BufferId acc = rig.PushVec(prior);
            const FusedStep agg = Step(FusedStep::Op::kAgg,
                                       static_cast<int64_t>(op), 0, 0, 3);
            return Launched{kernels::MakeFused({price, pct}, acc,
                                               kInvalidBuffer,
                                               FusedRecipe(agg),
                                               /*init=*/n % 2 == 0, n),
                            {{acc, 8}}};
          },
          "fused agg op=" + std::to_string(static_cast<int>(op)) +
              " n=" + std::to_string(n));
    }
  }
}

// --- Per-row reference sweeps ---------------------------------------------
//
// Every CmpOp, MapOp and AggOp on int32 and int64 columns at the sizes
// around a bitmap word and a tile, plus the edges the typed bodies special-
// case: empty and extreme BETWEEN ranges, bits past n, device counts below
// work_items and overflows whose capacity ends mid-word.

const size_t kEdgeSizes[] = {0,     1,     63,    64,
                             65,    16383, 16385, 2 * 16384 + 7};
constexpr size_t kTwoTilesPlus7 = 2 * 16384 + 7;
constexpr ElementType kIntTypes[] = {ElementType::kInt32,
                                     ElementType::kInt64};
constexpr CmpOp kCmpOps[] = {CmpOp::kLt, CmpOp::kLe,      CmpOp::kGt,
                             CmpOp::kGe, CmpOp::kEq,      CmpOp::kNe,
                             CmpOp::kBetween, CmpOp::kInPair};
constexpr MapOp kMapOps[] = {
    MapOp::kAddScalar,  MapOp::kSubScalar,        MapOp::kMulScalar,
    MapOp::kAddCol,     MapOp::kSubCol,           MapOp::kMulCol,
    MapOp::kMulPctComplement, MapOp::kMulPct,     MapOp::kMulPctPlus,
    MapOp::kIdentity,   MapOp::kNeqPrev};
constexpr AggOp kAggOps[] = {AggOp::kSum, AggOp::kCount, AggOp::kMin,
                             AggOp::kMax};

std::string Label(const char* kernel, ElementType type, int64_t op,
                  size_t n) {
  return std::string(kernel) + " " + ElementTypeName(type) + " op=" +
         std::to_string(op) + " n=" + std::to_string(n);
}

/// The bytes of an n-row `type` column drawn from [lo, hi]; rows 0 and 1
/// (when present) hold the type's minimum and maximum when `extremes`.
std::vector<uint8_t> RandomColumn(ElementType type, size_t n, uint64_t seed,
                                  int64_t lo, int64_t hi,
                                  bool extremes = false) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n * ElementSize(type));
  const bool narrow = type == ElementType::kInt32;
  for (size_t i = 0; i < n; ++i) {
    int64_t v = rng.Uniform(lo, hi);
    if (extremes && i < 2) {
      v = i == 0 ? (narrow ? INT32_MIN : INT64_MIN)
                 : (narrow ? INT32_MAX : INT64_MAX);
    }
    if (narrow) {
      const auto v32 = static_cast<int32_t>(v);
      std::memcpy(&bytes[i * 4], &v32, 4);
    } else {
      std::memcpy(&bytes[i * 8], &v, 8);
    }
  }
  return bytes;
}

/// A word-padded bitmap over n rows, each bit set with probability pct/100,
/// the padding bits past n included.
std::vector<uint8_t> RandomBitmap(size_t n, uint64_t seed, int pct) {
  Rng rng(seed);
  std::vector<uint64_t> words(bit_util::WordsForBits(n), 0);
  for (uint64_t& w : words) {
    for (int j = 0; j < 64; ++j) {
      if (rng.Uniform(0, 99) < pct) w |= uint64_t{1} << j;
    }
  }
  std::vector<uint8_t> bytes(words.size() * 8);
  if (!bytes.empty()) std::memcpy(bytes.data(), words.data(), bytes.size());
  return bytes;
}

BufferId PushCount(Rig& rig, int64_t count) {
  return rig.PushVec(std::vector<int64_t>{count});
}

TEST(KernelReference, FilterBitmapEveryOp) {
  for (ElementType type : kIntTypes) {
    for (CmpOp op : kCmpOps) {
      for (bool combine : {false, true}) {
        for (size_t n : kEdgeSizes) {
          ExpectParity(
              [=](Rig& rig) {
                BufferId in =
                    rig.PushVec(RandomColumn(type, n, 7 + n, -20, 20));
                // Preset bits, those past n included, which must survive.
                const size_t bytes = bit_util::BytesForBits(n);
                BufferId bitmap = rig.PushVec(RandomBitmap(n, 11 + n, 50));
                return Launched{kernels::MakeFilterBitmap(in, bitmap, op, type,
                                                          -5, 9, combine, n),
                                {{bitmap, bytes}}};
              },
              Label("filter_bitmap", type, static_cast<int64_t>(op), n) +
                  (combine ? " and" : ""));
        }
      }
    }
  }
}

TEST(KernelReference, FilterPositionEveryOp) {
  for (ElementType type : kIntTypes) {
    for (CmpOp op : kCmpOps) {
      for (size_t n : kEdgeSizes) {
        ExpectParity(
            [=](Rig& rig) {
              BufferId in = rig.PushVec(RandomColumn(type, n, 13 + n, -20, 20));
              BufferId positions = rig.PushZeros(n * 4);
              BufferId count = rig.PushZeros(8);
              return Launched{kernels::MakeFilterPosition(
                                  in, positions, count, op, type, -5, 9, n),
                              {{positions, n * 4}, {count, 8}}};
            },
            Label("filter_position", type, static_cast<int64_t>(op), n));
      }
    }
  }
}

/// load(type) -> filter `op` against lo/hi -> emit as `type`.
Launched FusedFilterStream(Rig& rig, ElementType type, CmpOp op, int64_t lo,
                           int64_t hi, const std::vector<uint8_t>& column,
                           size_t n) {
  const auto t = static_cast<int64_t>(type);
  BufferId in = rig.PushVec(column);
  BufferId out = rig.PushZeros(n * ElementSize(type));
  BufferId count = rig.PushZeros(8);
  return Launched{
      kernels::MakeFused({in}, out, count,
                         {Step(FusedStep::Op::kLoad, 0, t),
                          Step(FusedStep::Op::kFilter,
                               static_cast<int64_t>(op), lo, hi, 0),
                          Step(FusedStep::Op::kEmit, t, 0, 0, 0)},
                         false, n),
      {{out, n * ElementSize(type)}, {count, 8}}};
}

TEST(KernelReference, BetweenEmptyAndExtremeRanges) {
  struct Range {
    int64_t lo, hi;
  };
  const Range kRanges[] = {{9, -5},
                           {INT64_MAX, INT64_MIN},
                           {INT64_MIN, INT64_MAX},
                           {INT64_MIN, 3},
                           {-3, INT64_MAX},
                           {INT64_MIN, INT64_MIN},
                           {INT64_MAX, INT64_MAX},
                           {INT32_MIN, INT32_MAX}};
  const size_t n = kTwoTilesPlus7;
  for (ElementType type : kIntTypes) {
    for (const Range& r : kRanges) {
      const std::string what = std::string(ElementTypeName(type)) + " [" +
                               std::to_string(r.lo) + ", " +
                               std::to_string(r.hi) + "]";
      const auto column = [=] {
        return RandomColumn(type, n, 17, -20, 20, /*extremes=*/true);
      };
      for (bool combine : {false, true}) {
        ExpectParity(
            [=](Rig& rig) {
              BufferId in = rig.PushVec(column());
              BufferId bitmap = rig.PushVec(RandomBitmap(n, 19, 50));
              return Launched{
                  kernels::MakeFilterBitmap(in, bitmap, CmpOp::kBetween, type,
                                            r.lo, r.hi, combine, n),
                  {{bitmap, bit_util::BytesForBits(n)}}};
            },
            "filter_bitmap between " + what);
      }
      ExpectParity(
          [=](Rig& rig) {
            BufferId in = rig.PushVec(column());
            BufferId positions = rig.PushZeros(n * 4);
            BufferId count = rig.PushZeros(8);
            return Launched{
                kernels::MakeFilterPosition(in, positions, count,
                                            CmpOp::kBetween, type, r.lo, r.hi,
                                            n),
                {{positions, n * 4}, {count, 8}}};
          },
          "filter_position between " + what);
      ExpectParity(
          [=](Rig& rig) {
            return FusedFilterStream(rig, type, CmpOp::kBetween, r.lo, r.hi,
                                     column(), n);
          },
          "fused between " + what);
    }
  }
}

TEST(KernelReference, MapEveryOp) {
  for (ElementType in_type : kIntTypes) {
    for (ElementType out_type : kIntTypes) {
      for (MapOp op : kMapOps) {
        for (size_t n : kEdgeSizes) {
          ExpectParity(
              [=](Rig& rig) {
                BufferId in0 =
                    rig.PushVec(RandomColumn(in_type, n, 23 + n, -50, 50));
                BufferId in1 = kInvalidBuffer;
                if (MapReadsSecondColumn(op)) {
                  in1 = rig.PushVec(RandomColumn(
                      IsPercentMap(op) ? ElementType::kInt32 : in_type, n,
                      29 + n, 0, 100));
                }
                const size_t out_bytes = n * ElementSize(out_type);
                BufferId out = rig.PushZeros(out_bytes);
                return Launched{kernels::MakeMap(in0, in1, out, op, in_type,
                                                 out_type, 7, n),
                                {{out, out_bytes}}};
              },
              Label("map", in_type, static_cast<int64_t>(op), n) + " to " +
                  ElementTypeName(out_type));
        }
      }
    }
  }
}

TEST(KernelReference, AggBlockEveryOp) {
  for (ElementType type : kIntTypes) {
    for (AggOp op : kAggOps) {
      for (size_t n : kEdgeSizes) {
        ExpectParity(
            [=](Rig& rig) {
              BufferId in =
                  rig.PushVec(RandomColumn(type, n, 31 + n, -1000, 1000));
              BufferId acc = PushCount(rig, -42);
              return Launched{kernels::MakeAggBlock(in, acc, op, type,
                                                    /*init=*/n % 2 == 0, n),
                              {{acc, 8}}};
            },
            Label("agg_block", type, static_cast<int64_t>(op), n));
      }
    }
  }
}

// HASH_AGG accumulator lists: N accumulators around `op`, COUNT at every
// third position past the first so it sits among the valued ones, value
// types alternating from `type` so int32 and int64 columns share a table.
std::vector<std::pair<AggOp, ElementType>> AccList(size_t num_accs, AggOp op,
                                                   ElementType type) {
  const ElementType other = type == ElementType::kInt32 ? ElementType::kInt64
                                                        : ElementType::kInt32;
  std::vector<std::pair<AggOp, ElementType>> accs;
  for (size_t a = 0; a < num_accs; ++a) {
    accs.emplace_back(a % 3 == 1 ? AggOp::kCount : op,
                      a % 2 == 0 ? type : other);
  }
  return accs;
}

/// One HASH_AGG launch of `accs` over `keys` into a fresh `slots`-slot
/// table, each valued accumulator reading its own random column.
Launched HashAggLaunch(Rig& rig, const std::vector<int32_t>& keys,
                       const std::vector<std::pair<AggOp, ElementType>>& accs,
                       size_t slots, uint64_t seed) {
  const size_t n = keys.size();
  std::vector<kernels::HashAggAccumulator> launch_accs;
  for (size_t a = 0; a < accs.size(); ++a) {
    kernels::HashAggAccumulator acc;
    acc.op = accs[a].first;
    acc.value_type = accs[a].second;
    if (acc.op != AggOp::kCount) {
      acc.values = rig.PushVec(
          RandomColumn(acc.value_type, n, seed + 97 * a, -1000, 1000));
    }
    launch_accs.push_back(acc);
  }
  const size_t bytes = HashTableLayout::AggTableBytes(slots, accs.size());
  BufferId table = rig.PushVec(
      std::vector<int32_t>(bytes / 4, HashTableLayout::kEmptyKey));
  return Launched{kernels::MakeHashAgg(rig.PushVec(keys), launch_accs, table,
                                       slots, n, 50, false),
                  {{table, bytes}}};
}

TEST(KernelReference, HashAggEveryOpAndAccumulatorCount) {
  const size_t slots = 128;
  for (size_t num_accs : {size_t{1}, size_t{2}, size_t{5},
                          HashTableLayout::kMaxAccumulators}) {
    for (ElementType type : kIntTypes) {
      for (AggOp op : kAggOps) {
        for (size_t n : kEdgeSizes) {
          ExpectParity(
              [=](Rig& rig) {
                return HashAggLaunch(rig, RandomInts(n, 37 + n, 1, 50),
                                     AccList(num_accs, op, type), slots,
                                     41 + n);
              },
              Label("hash_agg", type, static_cast<int64_t>(op), n) +
                  " accs=" + std::to_string(num_accs));
        }
      }
    }
  }
}

/// Status and table bytes of one launch at a budget of one thread, the
/// table pulled whether or not the launch failed.
std::pair<Status, std::vector<uint8_t>> RunKeepingTable(
    const std::function<Launched(Rig&)>& setup) {
  Rig rig;
  Launched l = setup(rig);
  l.launch.num_threads = 1;
  const Status status = rig.dev->Execute(l.launch);
  return {status, rig.PullBytes(l.outputs[0].first, l.outputs[0].second)};
}

TEST(KernelReference, HashAggFailsAtTheRowSingleLaunchesFailAt) {
  // A sentinel key, and a 16-slot table that fills at its 17th distinct
  // key: the N-accumulator launch fails at the same row with the same
  // error as each of its accumulators' single launches, with rows [0, i)
  // applied to every accumulator -- the resumable state a growing table
  // restarts from.
  const size_t slots = 16;
  const auto accs = AccList(5, AggOp::kMin, ElementType::kInt64);
  std::vector<int32_t> sentinel = RandomInts(1000, 5, 1, 12);
  sentinel[700] = HashTableLayout::kEmptyKey;
  std::vector<int32_t> full = RandomInts(1000, 6, 1, 12);
  full[800] = 5000;
  for (size_t i = 900; i < 1000; ++i) full[i] = 6000 + static_cast<int32_t>(i);
  for (const auto& [what, keys, message] :
       {std::tuple{"sentinel", sentinel, "key collides with empty sentinel"},
        std::tuple{"table full", full, "aggregation hash table full"}}) {
    const auto [status, table] = RunKeepingTable(
        [&](Rig& rig) { return HashAggLaunch(rig, keys, accs, slots, 3); });
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
    const size_t slot_bytes = HashTableLayout::AggSlotBytes(accs.size());
    for (size_t a = 0; a < accs.size(); ++a) {
      // Accumulator a alone, reading the column the N launch gave it.
      const auto [single_status, single] = RunKeepingTable([&](Rig& rig) {
        Launched l = HashAggLaunch(rig, keys, accs, slots, 3);
        std::vector<kernels::HashAggAccumulator> one(1);
        one[0].op = accs[a].first;
        one[0].value_type = accs[a].second;
        size_t buffer_arg = 1;
        for (size_t b = 0; b < a; ++b) {
          buffer_arg += accs[b].first == AggOp::kCount ? 0 : 1;
        }
        if (one[0].op != AggOp::kCount) {
          one[0].values = l.launch.args[buffer_arg].buffer;
        }
        const size_t bytes = HashTableLayout::AggTableBytes(slots, 1);
        BufferId table = rig.PushVec(
            std::vector<int32_t>(bytes / 4, HashTableLayout::kEmptyKey));
        return Launched{kernels::MakeHashAgg(l.launch.args[0].buffer, one,
                                             table, slots, keys.size(), 50,
                                             false),
                        {{table, bytes}}};
      });
      EXPECT_EQ(single_status.ToString(), status.ToString()) << what;
      for (size_t slot = 0; slot < slots; ++slot) {
        const uint8_t* many = table.data() + slot * slot_bytes;
        const uint8_t* one =
            single.data() + slot * HashTableLayout::AggSlotBytes(1);
        EXPECT_EQ(std::memcmp(many, one, 4), 0)
            << what << " key of slot " << slot;
        EXPECT_EQ(std::memcmp(many + HashTableLayout::kAggAccOffset + 8 * a,
                              one + HashTableLayout::kAggAccOffset, 8),
                  0)
            << what << " accumulator " << a << " of slot " << slot;
      }
    }
  }
  // The reference fails the same way.
  ExpectParity(
      [&](Rig& rig) { return HashAggLaunch(rig, sentinel, accs, slots, 3); },
      "hash_agg sentinel");
  ExpectParity([&](Rig& rig) { return HashAggLaunch(rig, full, accs, slots, 3); },
               "hash_agg table full");
}

TEST(KernelReference, SortAggSumAndCount) {
  const size_t groups = 37;
  for (ElementType type : kIntTypes) {
    for (AggOp op : {AggOp::kSum, AggOp::kCount}) {
      for (size_t n : kEdgeSizes) {
        ExpectParity(
            [=](Rig& rig) {
              std::vector<int32_t> pxsum = RandomInts(n, 43 + n, 0, groups - 1);
              std::sort(pxsum.begin(), pxsum.end());
              BufferId values =
                  rig.PushVec(RandomColumn(type, n, 47 + n, -1000, 1000));
              BufferId pxsum_buf = rig.PushVec(pxsum);
              BufferId agg = rig.PushVec(std::vector<int64_t>(groups, 5));
              return Launched{kernels::MakeSortAgg(values, pxsum_buf, agg, op,
                                                   type, groups,
                                                   /*init=*/n % 2 == 0, n),
                              {{agg, groups * 8}}};
            },
            Label("sort_agg", type, static_cast<int64_t>(op), n));
      }
    }
  }
}

TEST(KernelReference, MaterializeEveryTypeAndDensity) {
  for (ElementType type : kIntTypes) {
    for (int pct : {0, 3, 50, 98, 100}) {
      for (size_t n : kEdgeSizes) {
        ExpectParity(
            [=](Rig& rig) {
              BufferId in =
                  rig.PushVec(RandomColumn(type, n, 53 + n, -1000, 1000));
              BufferId bitmap = rig.PushVec(RandomBitmap(n, 59 + n, pct));
              const size_t out_bytes = n * ElementSize(type);
              BufferId out = rig.PushZeros(out_bytes);
              BufferId count = rig.PushZeros(8);
              return Launched{
                  kernels::MakeMaterialize(in, bitmap, out, count, type, n),
                  {{out, out_bytes}, {count, 8}}};
            },
            Label("materialize", type, pct, n));
      }
    }
  }
}

TEST(KernelReference, MaterializePositionEveryType) {
  for (ElementType type : kIntTypes) {
    for (size_t n : kEdgeSizes) {
      ExpectParity(
          [=](Rig& rig) {
            BufferId in =
                rig.PushVec(RandomColumn(type, n, 61 + n, -1000, 1000));
            const auto last = static_cast<int64_t>(n) - 1;
            BufferId positions = rig.PushVec(
                RandomInts(n, 67 + n, 0, std::max<int64_t>(last, 0)));
            const size_t out_bytes = n * ElementSize(type);
            BufferId out = rig.PushZeros(out_bytes);
            return Launched{kernels::MakeMaterializePosition(in, positions,
                                                             out, type, n),
                            {{out, out_bytes}}};
          },
          Label("materialize_position", type, 0, n));
    }
  }
}

// Overflow: capacities ending mid-word, in a dense and in a full bitmap, so
// the failing row lies in a walked word and in a copied full word.
const size_t kMidWordCaps[] = {0, 37, 100, 16384 + 13, 20000 + 5};

TEST(KernelReference, CompactionOverflowMidWord) {
  const size_t n = kTwoTilesPlus7;
  for (size_t cap : kMidWordCaps) {
    for (int pct : {50, 100}) {
      ExpectParity(
          [=](Rig& rig) {
            BufferId in = rig.PushVec(RandomColumn(ElementType::kInt64, n, 71,
                                                   -1000, 1000));
            BufferId bitmap = rig.PushVec(RandomBitmap(n, 73, pct));
            BufferId out = rig.PushZeros(cap * 8);
            BufferId count = rig.PushZeros(8);
            return Launched{kernels::MakeMaterialize(in, bitmap, out, count,
                                                     ElementType::kInt64, n),
                            {}};
          },
          "materialize overflow cap=" + std::to_string(cap) +
              " pct=" + std::to_string(pct));
      ExpectParity(
          [=](Rig& rig) {
            // pct 100 selects every row (v != 1000 on [-20, 20]).
            BufferId in = rig.PushVec(RandomColumn(ElementType::kInt32, n, 79,
                                                   -20, 20));
            BufferId positions = rig.PushZeros(cap * 4);
            BufferId count = rig.PushZeros(8);
            return Launched{kernels::MakeFilterPosition(
                                in, positions, count,
                                pct == 100 ? CmpOp::kNe : CmpOp::kLt,
                                ElementType::kInt32, pct == 100 ? 1000 : 0, 0,
                                n),
                            {}};
          },
          "filter_position overflow cap=" + std::to_string(cap) +
              " pct=" + std::to_string(pct));
    }
    ExpectParity(
        [=](Rig& rig) {
          std::vector<int32_t> build_keys = RandomInts(4000, 83, 1, 2000);
          const size_t slots = HashTableLayout::SlotsFor(4000);
          BufferId table = BuildScalarTable(rig, build_keys, slots);
          BufferId probe = rig.PushVec(RandomInts(n, 89, 1, 2000));
          BufferId left = rig.PushZeros(cap * 4);
          BufferId right = rig.PushZeros(cap * 4);
          BufferId count = rig.PushZeros(8);
          return Launched{kernels::MakeHashProbe(probe, table, left, right,
                                                 count, slots, ProbeMode::kAll,
                                                 0, n),
                          {}};
        },
        "hash_probe overflow cap=" + std::to_string(cap));
    ExpectParity(
        [=](Rig& rig) {
          Launched l = FusedStream(rig, n, cap, 97);
          l.outputs.clear();
          return l;
        },
        "fused overflow cap=" + std::to_string(cap));
  }
}

TEST(KernelReference, DeviceCountBelowWorkItems) {
  const size_t n = kTwoTilesPlus7;
  for (int64_t valid : {int64_t{0}, int64_t{63}, int64_t{16385 + 30}}) {
    const std::string what = " count=" + std::to_string(valid);
    ExpectParity(
        [=](Rig& rig) {
          BufferId count_in = PushCount(rig, valid);
          BufferId in = rig.PushVec(RandomInts(n, 101, -20, 20));
          BufferId out = rig.PushZeros(n * 8);
          return Launched{kernels::MakeMap(in, kInvalidBuffer, out,
                                           MapOp::kMulScalar,
                                           ElementType::kInt32,
                                           ElementType::kInt64, -3, n,
                                           count_in),
                          {{out, n * 8}}};
        },
        "map" + what);
    ExpectParity(
        [=](Rig& rig) {
          BufferId count_in = PushCount(rig, valid);
          BufferId in = rig.PushVec(RandomInts(n, 103, -20, 20));
          BufferId bitmap = rig.PushVec(RandomBitmap(n, 107, 50));
          return Launched{kernels::MakeFilterBitmap(
                              in, bitmap, CmpOp::kGe, ElementType::kInt32, 0,
                              0, true, n, count_in),
                          {{bitmap, bit_util::BytesForBits(n)}}};
        },
        "filter_bitmap" + what);
    ExpectParity(
        [=](Rig& rig) {
          BufferId count_in = PushCount(rig, valid);
          BufferId in = rig.PushVec(RandomInts(n, 109, -20, 20));
          BufferId positions = rig.PushZeros(n * 4);
          BufferId count = rig.PushZeros(8);
          return Launched{kernels::MakeFilterPosition(
                              in, positions, count, CmpOp::kLt,
                              ElementType::kInt32, 5, 0, n, count_in),
                          {{positions, n * 4}, {count, 8}}};
        },
        "filter_position" + what);
    ExpectParity(
        [=](Rig& rig) {
          BufferId count_in = PushCount(rig, valid);
          BufferId in = rig.PushVec(RandomInts(n, 113, -20, 20));
          BufferId bitmap = rig.PushVec(RandomBitmap(n, 127, 98));
          BufferId out = rig.PushZeros(n * 4);
          BufferId count = rig.PushZeros(8);
          return Launched{
              kernels::MakeMaterialize(in, bitmap, out, count,
                                       ElementType::kInt32, n, count_in),
              {{out, n * 4}, {count, 8}}};
        },
        "materialize" + what);
    ExpectParity(
        [=](Rig& rig) {
          BufferId count_in = PushCount(rig, valid);
          BufferId in = rig.PushVec(RandomInts(n, 131, -20, 20));
          BufferId acc = PushCount(rig, 7);
          return Launched{kernels::MakeAggBlock(in, acc, AggOp::kSum,
                                                ElementType::kInt32, false, n,
                                                count_in),
                          {{acc, 8}}};
        },
        "agg_block" + what);
    ExpectParity(
        [=](Rig& rig) {
          return FusedStream(rig, n, n, 137, PushCount(rig, valid));
        },
        "fused" + what);
  }
}

/// load a, load b (int32 0..100); filter a >= -500; map `op` over a (and b,
/// or imm 7) to `out_type`; `terminal` over the map (reg 3).
std::vector<FusedStep> FusedMapRecipe(ElementType in_type, MapOp op,
                                      ElementType out_type,
                                      const FusedStep& terminal) {
  return {Step(FusedStep::Op::kLoad, 0, static_cast<int64_t>(in_type)),
          Step(FusedStep::Op::kLoad, 1,
               static_cast<int64_t>(ElementType::kInt32)),
          Step(FusedStep::Op::kFilter, static_cast<int64_t>(CmpOp::kGe), -500,
               0, 0),
          Step(FusedStep::Op::kMap, static_cast<int64_t>(op), 7,
               static_cast<int64_t>(out_type), 0,
               MapReadsSecondColumn(op) ? 1 : -1),
          terminal};
}

TEST(KernelReference, FusedEveryFilterOp) {
  for (ElementType type : kIntTypes) {
    for (CmpOp op : kCmpOps) {
      for (size_t n : kEdgeSizes) {
        ExpectParity(
            [=](Rig& rig) {
              return FusedFilterStream(rig, type, op, -5, 9,
                                       RandomColumn(type, n, 139 + n, -20, 20),
                                       n);
            },
            Label("fused filter", type, static_cast<int64_t>(op), n));
      }
    }
  }
}

TEST(KernelReference, FusedEveryMapAndAggOp) {
  const size_t kSizesSubset[] = {0, 1, 65, 16385, kTwoTilesPlus7};
  for (ElementType in_type : kIntTypes) {
    for (ElementType out_type : kIntTypes) {
      for (MapOp op : kMapOps) {
        if (op == MapOp::kNeqPrev) continue;  // not fusable
        for (size_t n : kSizesSubset) {
          const auto inputs = [=](Rig& rig) {
            return std::vector<BufferId>{
                rig.PushVec(RandomColumn(in_type, n, 149 + n, -1000, 1000)),
                rig.PushVec(RandomInts(n, 151 + n, 0, 100))};
          };
          const std::string what =
              Label("fused map", in_type, static_cast<int64_t>(op), n) +
              " to " + ElementTypeName(out_type);
          ExpectParity(
              [=](Rig& rig) {
                const size_t out_bytes = n * ElementSize(out_type);
                BufferId out = rig.PushZeros(out_bytes);
                BufferId count = rig.PushZeros(8);
                const FusedStep emit =
                    Step(FusedStep::Op::kEmit,
                         static_cast<int64_t>(out_type), 0, 0, 3);
                return Launched{
                    kernels::MakeFused(inputs(rig), out, count,
                                       FusedMapRecipe(in_type, op, out_type,
                                                      emit),
                                       false, n),
                    {{out, out_bytes}, {count, 8}}};
              },
              what + " emit");
          for (AggOp agg_op : kAggOps) {
            ExpectParity(
                [=](Rig& rig) {
                  BufferId acc = PushCount(rig, -42);
                  const FusedStep agg =
                      Step(FusedStep::Op::kAgg, static_cast<int64_t>(agg_op),
                           0, 0, agg_op == AggOp::kCount ? -1 : 3);
                  return Launched{
                      kernels::MakeFused(inputs(rig), acc, kInvalidBuffer,
                                         FusedMapRecipe(in_type, op, out_type,
                                                        agg),
                                         /*init=*/n % 2 == 0, n),
                      {{acc, 8}}};
                },
                what + " agg=" + std::to_string(static_cast<int>(agg_op)));
          }
        }
      }
    }
  }
}

TEST(KernelReference, FusedFilterOnAMapAndTwoFilters) {
  for (size_t n : kEdgeSizes) {
    ExpectParity(
        [=](Rig& rig) {
          // map a + 3 as int32, then filter the map's value.
          BufferId a = rig.PushVec(RandomInts(n, 157 + n, -200, 200));
          BufferId out = rig.PushZeros(n * 4);
          BufferId count = rig.PushZeros(8);
          const auto i32 = static_cast<int64_t>(ElementType::kInt32);
          return Launched{
              kernels::MakeFused(
                  {a}, out, count,
                  {Step(FusedStep::Op::kLoad, 0, i32),
                   Step(FusedStep::Op::kMap,
                        static_cast<int64_t>(MapOp::kAddScalar), 3, i32, 0),
                   Step(FusedStep::Op::kFilter,
                        static_cast<int64_t>(CmpOp::kLt), 100, 0, 1),
                   Step(FusedStep::Op::kEmit, i32, 0, 0, 1)},
                  false, n),
              {{out, n * 4}, {count, 8}}};
        },
        "fused filter on a map n=" + std::to_string(n));
    ExpectParity(
        [=](Rig& rig) {
          // Q6's shape: three filters on three loads, a map, a sum.
          const auto i32 = static_cast<int64_t>(ElementType::kInt32);
          const auto i64 = static_cast<int64_t>(ElementType::kInt64);
          BufferId date = rig.PushVec(RandomInts(n, 163 + n, 0, 2000));
          BufferId disc = rig.PushVec(RandomInts(n, 167 + n, 0, 10));
          BufferId qty = rig.PushVec(RandomInts(n, 173 + n, 1, 50));
          BufferId price = rig.PushVec(RandomColumn(ElementType::kInt64, n,
                                                    179 + n, 100, 100000));
          BufferId acc = PushCount(rig, 0);
          return Launched{
              kernels::MakeFused(
                  {date, disc, qty, price}, acc, kInvalidBuffer,
                  {Step(FusedStep::Op::kLoad, 0, i32),
                   Step(FusedStep::Op::kFilter,
                        static_cast<int64_t>(CmpOp::kBetween), 365, 729, 0),
                   Step(FusedStep::Op::kLoad, 1, i32),
                   Step(FusedStep::Op::kFilter,
                        static_cast<int64_t>(CmpOp::kBetween), 5, 7, 2),
                   Step(FusedStep::Op::kLoad, 2, i32),
                   Step(FusedStep::Op::kFilter,
                        static_cast<int64_t>(CmpOp::kLt), 24, 0, 4),
                   Step(FusedStep::Op::kLoad, 3, i64),
                   Step(FusedStep::Op::kMap,
                        static_cast<int64_t>(MapOp::kMulPct), 0, i64, 6, 2),
                   Step(FusedStep::Op::kAgg,
                        static_cast<int64_t>(AggOp::kSum), 0, 0, 7)},
                  true, n),
              {{acc, 8}}};
        },
        "fused q6 shape n=" + std::to_string(n));
  }
}

TEST(KernelReference, FusedMapNeverRunsOnRowsAFilterDropped) {
  // Every other row holds a value whose map (* 4) overflows int64; the
  // filter drops exactly those rows, so no run may compute their map. Under
  // UBSan an interpreter that maps dead rows fails here.
  const size_t n = kTwoTilesPlus7;
  const auto column = [n] {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = i % 2 == 0 ? INT64_MAX / 2 + static_cast<int64_t>(i)
                        : static_cast<int64_t>(i % 1000);
    }
    return v;
  };
  const auto i64 = static_cast<int64_t>(ElementType::kInt64);
  const auto recipe = [i64](const FusedStep& terminal) {
    return std::vector<FusedStep>{
        Step(FusedStep::Op::kLoad, 0, i64),
        Step(FusedStep::Op::kFilter, static_cast<int64_t>(CmpOp::kLt), 1000,
             0, 0),
        Step(FusedStep::Op::kMap, static_cast<int64_t>(MapOp::kMulScalar), 4,
             i64, 0),
        terminal};
  };
  ExpectParity(
      [=](Rig& rig) {
        BufferId in = rig.PushVec(column());
        BufferId out = rig.PushZeros(n * 8);
        BufferId count = rig.PushZeros(8);
        return Launched{
            kernels::MakeFused({in}, out, count,
                               recipe(Step(FusedStep::Op::kEmit, i64, 0, 0, 2)),
                               false, n),
            {{out, n * 8}, {count, 8}}};
      },
      "fused dead-row overflow emit");
  ExpectParity(
      [=](Rig& rig) {
        BufferId in = rig.PushVec(column());
        BufferId acc = PushCount(rig, 0);
        return Launched{
            kernels::MakeFused(
                {in}, acc, kInvalidBuffer,
                recipe(Step(FusedStep::Op::kAgg,
                            static_cast<int64_t>(AggOp::kSum), 0, 0, 2)),
                true, n),
            {{acc, 8}}};
      },
      "fused dead-row overflow agg");
}

// --- Tiling registry & device budgets --------------------------------------

TEST(KernelVariantRegistry, TiledKernelsAreTheHotPrimitivesAndFused) {
  std::vector<std::string> tiled;
  for (const std::string& name : kernels::AllKernelNames()) {
    if (kernels::KernelTiles(name)) tiled.push_back(name);
  }
  std::sort(tiled.begin(), tiled.end());
  EXPECT_EQ(tiled, (std::vector<std::string>{
                       "agg_block", "filter_bitmap", "filter_position",
                       "fused", "hash_build", "hash_probe", "map",
                       "materialize", "materialize_position", "prefix_sum"}));
  EXPECT_FALSE(kernels::KernelTiles("no_such_kernel"));
}

TEST(KernelVariantRegistry, CpuDriversOwnFourThreadsGpusOne) {
  DeviceManager manager;
  struct Want {
    sim::DriverKind kind;
    int own_threads;
  };
  const Want kWants[] = {
      {sim::DriverKind::kOpenMpCpu, 4},
      {sim::DriverKind::kOpenClCpu, 4},
      {sim::DriverKind::kCudaGpu, 1},
      {sim::DriverKind::kOpenClGpu, 1},
  };
  for (const Want& want : kWants) {
    auto id = manager.AddDriver(want.kind);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(BindStandardKernels(manager.device(*id)).ok());
    SimulatedDevice* dev = manager.device(*id);
    EXPECT_EQ(dev->kernel_threads(), want.own_threads)
        << dev->perf_model().name;
    EXPECT_TRUE(dev->KernelTiles("map")) << dev->perf_model().name;
    EXPECT_FALSE(dev->KernelTiles("hash_agg")) << dev->perf_model().name;
  }
}

TEST(KernelVariantRegistry, ParallelLaunchCounterCountsTiledRuns) {
  Rig rig;
  const size_t n = 50000;
  std::vector<int32_t> in = RandomInts(n, 127, 0, 100);
  BufferId in_buf = rig.PushVec(in);
  BufferId out = rig.PushZeros(n * 4);
  KernelLaunch launch =
      kernels::MakeMap(in_buf, kInvalidBuffer, out, MapOp::kAddScalar,
                       ElementType::kInt32, ElementType::kInt32, 1, n);
  launch.num_threads = 1;  // one thread runs one range
  ASSERT_TRUE(rig.dev->Execute(launch).ok());
  EXPECT_EQ(rig.dev->parallel_launches(), 0u);
  launch.num_threads = 0;  // openmp_cpu's own budget: four threads
  ASSERT_TRUE(rig.dev->Execute(launch).ok());
  EXPECT_EQ(rig.dev->parallel_launches(), 1u);
  // One tile runs as one range under any budget, so it does not count.
  launch.work_items = kernels::ParallelTileElems();
  ASSERT_TRUE(rig.dev->Execute(launch).ok());
  EXPECT_EQ(rig.dev->parallel_launches(), 1u);

  // On cuda_gpu (own budget one thread) a two-tile launch at budget 4 tiles
  // on the host, so it counts, but charges the body of budget 1: the GPU
  // model already is massively parallel.
  Rig gpu(1, sim::DriverKind::kCudaGpu);
  const size_t two_tiles = 2 * kernels::ParallelTileElems();
  KernelLaunch gpu_launch = kernels::MakeMap(
      gpu.PushVec(RandomInts(two_tiles, 129, 0, 100)), kInvalidBuffer,
      gpu.PushZeros(two_tiles * 4), MapOp::kAddScalar, ElementType::kInt32,
      ElementType::kInt32, 1, two_tiles);
  double body_us[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    gpu_launch.num_threads = i == 0 ? 1 : 4;
    const double before = gpu.dev->kernel_body_time();
    ASSERT_TRUE(gpu.dev->Execute(gpu_launch).ok());
    body_us[i] = gpu.dev->kernel_body_time() - before;
    EXPECT_EQ(gpu.dev->parallel_launches(), static_cast<size_t>(i));
  }
  EXPECT_EQ(body_us[1], body_us[0]);
}

// --- Simulated speedup gates -----------------------------------------------
//
// 2^22 keys executed and charged as 2^25, the chunk size of the SF >= 10
// queries: every four-thread launch runs tiled, and map, filter_bitmap and
// agg_block charge >= 2x less simulated body time than on one thread (the
// model predicts 3.08x at 4 threads). At 4096 elements, below two tiles, a
// four-thread launch runs as one range and may charge at most 5% more.

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

/// Simulated body time of one launch at a budget of `threads`, on a fresh
/// openmp_cpu device charging `nominal` elements for `n`.
BodyTime MeasureBody(const SpeedupCase& make, int threads, size_t n,
                     size_t nominal) {
  Rig rig(static_cast<double>(nominal) / static_cast<double>(n));
  KernelLaunch launch = make(rig, n);
  launch.num_threads = threads;
  const double body_before = rig.dev->kernel_body_time();
  const size_t parallel_before = rig.dev->parallel_launches();
  ADAMANT_CHECK(rig.dev->Execute(launch).ok()) << launch.kernel_name;
  return {rig.dev->kernel_body_time() - body_before,
          rig.dev->parallel_launches() > parallel_before};
}

TEST(KernelVariantSpeedup, FourThreadsChargeLessAtChunkSize) {
  for (const auto& [name, make] : SpeedupCases()) {
    const std::string kernel = name;
    const BodyTime scalar = MeasureBody(make, 1, kLargeElems, kNominalElems);
    const BodyTime parallel = MeasureBody(make, kDefaultKernelThreads,
                                          kLargeElems, kNominalElems);
    EXPECT_TRUE(parallel.parallel_dispatch) << kernel;
    if (kernel == "map" || kernel == "filter_bitmap" ||
        kernel == "agg_block") {
      EXPECT_GE(scalar.sim_us / parallel.sim_us, 2.0) << kernel;
    }
  }
}

TEST(KernelVariantSpeedup, SmallLaunchesFallBackToOneThreadCost) {
  for (const auto& [name, make] : SpeedupCases()) {
    const BodyTime scalar = MeasureBody(make, 1, kSmallElems, kSmallElems);
    const BodyTime parallel =
        MeasureBody(make, kDefaultKernelThreads, kSmallElems, kSmallElems);
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
  // Several threads submit regions at once (the device-parallel run's
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
