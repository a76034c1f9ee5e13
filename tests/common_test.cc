// Unit tests for the common substrate: Status/Result, bit utilities,
// aligned buffers, dates, RNG, money.

#include <gtest/gtest.h>

#include <vector>

#include "common/aligned_buffer.h"
#include "common/bit_util.h"
#include "common/date.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"

namespace adamant {
namespace {

// --- Status ---

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::OutOfMemory("device full");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_EQ(st.message(), "device full");
  EXPECT_EQ(st.ToString(), "Out of memory: device full");
}

TEST(Status, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ExecutionError("x").IsExecutionError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(Status, CopyPreservesState) {
  Status a = Status::NotFound("thing");
  Status b = a;
  EXPECT_TRUE(b.IsNotFound());
  EXPECT_EQ(b.message(), "thing");
  EXPECT_EQ(a, b);
  b = Status::OK();
  EXPECT_TRUE(b.ok());
  EXPECT_TRUE(a.IsNotFound());  // copy was deep
}

TEST(Status, WithContextPrefixesMessage) {
  Status st = Status::IOError("read failed").WithContext("chunk 3");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.message(), "chunk 3: read failed");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    ADAMANT_RETURN_NOT_OK(Status::Internal("boom"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsInternal());
  auto succeeds = []() -> Status {
    ADAMANT_RETURN_NOT_OK(Status::OK());
    return Status::NotFound("reached");
  };
  EXPECT_TRUE(succeeds().IsNotFound());
}

// --- Result ---

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueUnsafe();
  EXPECT_EQ(*v, 7);
}

TEST(Result, RvalueDereferenceMoves) {
  auto make = []() -> Result<std::vector<int>> {
    return std::vector<int>{1, 2, 3};
  };
  std::vector<int> v = *make();
  EXPECT_EQ(v.size(), 3u);
}

TEST(Result, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("inner");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    ADAMANT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsInvalidArgument());
}

// --- bit_util ---

TEST(BitUtil, WordAndByteCounts) {
  EXPECT_EQ(bit_util::WordsForBits(0), 0u);
  EXPECT_EQ(bit_util::WordsForBits(1), 1u);
  EXPECT_EQ(bit_util::WordsForBits(64), 1u);
  EXPECT_EQ(bit_util::WordsForBits(65), 2u);
  EXPECT_EQ(bit_util::BytesForBits(65), 16u);
}

TEST(BitUtil, CeilDivAndRoundUp) {
  EXPECT_EQ(bit_util::CeilDiv(10, 3), 4u);
  EXPECT_EQ(bit_util::CeilDiv(9, 3), 3u);
  EXPECT_EQ(bit_util::RoundUp(10, 8), 16u);
  EXPECT_EQ(bit_util::RoundUp(16, 8), 16u);
}

TEST(BitUtil, PowersOfTwo) {
  EXPECT_TRUE(bit_util::IsPowerOfTwo(1));
  EXPECT_TRUE(bit_util::IsPowerOfTwo(1024));
  EXPECT_FALSE(bit_util::IsPowerOfTwo(0));
  EXPECT_FALSE(bit_util::IsPowerOfTwo(1023));
  EXPECT_EQ(bit_util::NextPowerOfTwo(1), 1u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(2), 2u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(3), 4u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(1025), 2048u);
}

TEST(BitUtil, CountSetBitsHonorsTail) {
  uint64_t bitmap[2] = {~uint64_t{0}, ~uint64_t{0}};
  EXPECT_EQ(bit_util::CountSetBits(bitmap, 128), 128u);
  EXPECT_EQ(bit_util::CountSetBits(bitmap, 70), 70u);
  EXPECT_EQ(bit_util::CountSetBits(bitmap, 64), 64u);
  EXPECT_EQ(bit_util::CountSetBits(bitmap, 1), 1u);
  EXPECT_EQ(bit_util::CountSetBits(bitmap, 0), 0u);
}

// --- AlignedBuffer ---

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer buffer(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u);
  EXPECT_EQ(buffer.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(buffer.data()[i], 0);
}

TEST(AlignedBuffer, ResizePreservesPrefix) {
  AlignedBuffer buffer(8);
  buffer.data()[0] = 42;
  buffer.data()[7] = 7;
  buffer.Resize(1024);
  EXPECT_EQ(buffer.data()[0], 42);
  EXPECT_EQ(buffer.data()[7], 7);
  EXPECT_EQ(buffer.data()[100], 0);  // new bytes zeroed
}

TEST(AlignedBuffer, ShrinkThenGrowRezeroes) {
  AlignedBuffer buffer(64);
  buffer.data()[32] = 9;
  buffer.Resize(16);
  buffer.Resize(64);
  EXPECT_EQ(buffer.data()[32], 0) << "bytes exposed by regrowth are zeroed";
}

TEST(AlignedBuffer, AppendsReallocateLogarithmically) {
  AlignedBuffer buffer;
  constexpr uint32_t kAppends = 1 << 16;
  size_t capacity = buffer.capacity();
  size_t capacity_changes = 0;
  for (uint32_t i = 0; i < kAppends; ++i) {
    buffer.Append(&i, sizeof(i));
    if (buffer.capacity() != capacity) {
      capacity = buffer.capacity();
      ++capacity_changes;
    }
  }
  ASSERT_EQ(buffer.size(), kAppends * sizeof(uint32_t));
  // Doubling from one 64-byte line to 256 KiB: 13 allocations, where
  // growing one line at a time would take 4096.
  EXPECT_EQ(capacity_changes, 13u);
  EXPECT_EQ(capacity, kAppends * sizeof(uint32_t));
  uint32_t mismatches = 0;
  for (uint32_t i = 0; i < kAppends; ++i) {
    mismatches += buffer.data_as<uint32_t>()[i] != i;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(AlignedBuffer, ResizeAllocatesExactly) {
  AlignedBuffer buffer;
  buffer.Resize(100);
  EXPECT_EQ(buffer.capacity(), 128u);
  buffer.Resize(1000);
  EXPECT_EQ(buffer.capacity(), 1024u) << "a growing Resize does not double";
  buffer.Resize(10);
  EXPECT_EQ(buffer.capacity(), 1024u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(32);
  a.data()[0] = 1;
  uint8_t* ptr = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

// --- Date ---

TEST(Date, EpochAnchors) {
  EXPECT_EQ(Date::FromYmd(1970, 1, 1).days(), 0);
  EXPECT_EQ(Date::FromYmd(1970, 1, 2).days(), 1);
  EXPECT_EQ(Date::FromYmd(1969, 12, 31).days(), -1);
}

TEST(Date, ParseRoundTrip) {
  auto d = Date::Parse("1995-03-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->year(), 1995);
  EXPECT_EQ(d->month(), 3);
  EXPECT_EQ(d->day(), 15);
  EXPECT_EQ(d->ToString(), "1995-03-15");
}

TEST(Date, ParseRejectsMalformed) {
  EXPECT_TRUE(Date::Parse("not a date").status().IsInvalidArgument());
  EXPECT_TRUE(Date::Parse("1995-13-01").status().IsInvalidArgument());
  EXPECT_TRUE(Date::Parse("1995-02-30").status().IsInvalidArgument());
  EXPECT_TRUE(Date::Parse("1995-03-15x").status().IsInvalidArgument());
}

TEST(Date, LeapYearHandling) {
  EXPECT_TRUE(Date::Parse("2000-02-29").ok());   // divisible by 400
  EXPECT_FALSE(Date::Parse("1900-02-29").ok());  // divisible by 100 only
  EXPECT_TRUE(Date::Parse("1996-02-29").ok());
  EXPECT_FALSE(Date::Parse("1995-02-29").ok());
}

TEST(Date, AddMonthsClampsDay) {
  EXPECT_EQ(Date::FromYmd(1993, 1, 31).AddMonths(1).ToString(), "1993-02-28");
  EXPECT_EQ(Date::FromYmd(1993, 7, 1).AddMonths(3).ToString(), "1993-10-01");
  EXPECT_EQ(Date::FromYmd(1994, 1, 1).AddMonths(12).ToString(), "1995-01-01");
  EXPECT_EQ(Date::FromYmd(1994, 3, 15).AddMonths(-3).ToString(), "1993-12-15");
}

TEST(Date, ComparisonOperators) {
  Date a = Date::FromYmd(1995, 1, 1);
  Date b = Date::FromYmd(1995, 6, 1);
  EXPECT_LT(a, b);
  EXPECT_LE(a, a);
  EXPECT_GT(b, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Date::FromYmd(1995, 1, 1));
}

TEST(Date, RoundTripPropertySweep) {
  // Every day of the TPC-H window converts to civil and back losslessly.
  const int32_t start = Date::FromYmd(1992, 1, 1).days();
  const int32_t end = Date::FromYmd(1998, 12, 31).days();
  for (int32_t d = start; d <= end; d += 17) {
    Date date(d);
    EXPECT_EQ(Date::FromYmd(date.year(), date.month(), date.day()).days(), d);
  }
}

// --- Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 10);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// --- Money ---

TEST(Money, FixedPointConversions) {
  EXPECT_EQ(MoneyFromDouble(12.34), 1234);
  EXPECT_EQ(MoneyFromDouble(-12.34), -1234);
  EXPECT_DOUBLE_EQ(MoneyToDouble(1234), 12.34);
  EXPECT_EQ(MoneyFromDouble(0.005), 1) << "rounds half up";
}

}  // namespace
}  // namespace adamant
