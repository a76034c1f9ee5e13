// Unit tests for the columnar storage substrate.

#include <gtest/gtest.h>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/table.h"
#include "storage/types.h"

namespace adamant {
namespace {

TEST(ElementTypes, SizesAndNames) {
  EXPECT_EQ(ElementSize(ElementType::kInt32), 4u);
  EXPECT_EQ(ElementSize(ElementType::kInt64), 8u);
  EXPECT_EQ(ElementSize(ElementType::kFloat64), 8u);
  EXPECT_STREQ(ElementTypeName(ElementType::kInt32), "int32");
  EXPECT_STREQ(ElementTypeName(ElementType::kInt64), "int64");
}

TEST(Column, FromVectorTypedAccess) {
  auto col = Column::FromVector<int32_t>("c", {3, 1, 4, 1, 5});
  EXPECT_EQ(col->length(), 5u);
  EXPECT_EQ(col->type(), ElementType::kInt32);
  EXPECT_EQ(col->byte_size(), 20u);
  EXPECT_EQ(col->Value<int32_t>(2), 4);
  EXPECT_EQ(col->data<int32_t>()[4], 5);
}

TEST(Column, Int64AndDouble) {
  auto c64 = Column::FromVector<int64_t>("m", {int64_t{1} << 40});
  EXPECT_EQ(c64->Value<int64_t>(0), int64_t{1} << 40);
  auto cd = Column::FromVector<double>("d", {1.5, 2.5});
  EXPECT_EQ(cd->type(), ElementType::kFloat64);
  EXPECT_DOUBLE_EQ(cd->Value<double>(1), 2.5);
}

TEST(Column, AppendGrows) {
  Column col("a", ElementType::kInt32);
  for (int32_t i = 0; i < 100; ++i) col.Append(i * i);
  EXPECT_EQ(col.length(), 100u);
  EXPECT_EQ(col.Value<int32_t>(99), 99 * 99);
}

TEST(Column, AppendsMoveTheDataLogarithmicallyOften) {
  // Building a column by appends (the .tbl import path) must not copy it
  // once per 64-byte line: count how often the storage moves.
  Column col("a", ElementType::kInt32);
  constexpr int32_t kAppends = 1 << 16;
  const uint8_t* data = col.raw_data();
  int moves = 0;
  for (int32_t i = 0; i < kAppends; ++i) {
    col.Append(i);
    if (col.raw_data() != data) {
      data = col.raw_data();
      ++moves;
    }
  }
  EXPECT_LE(moves, 13);
  EXPECT_EQ(col.length(), static_cast<size_t>(kAppends));
  EXPECT_EQ(col.Value<int32_t>(kAppends - 1), kAppends - 1);
}

TEST(Column, ResizeZeroFills) {
  Column col("a", ElementType::kInt64);
  col.Resize(10);
  EXPECT_EQ(col.Value<int64_t>(9), 0);
}

TEST(Dictionary, InternAndLookup) {
  StringDictionary dict;
  int32_t a = dict.GetOrInsert("BUILDING");
  int32_t b = dict.GetOrInsert("MACHINERY");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.GetOrInsert("BUILDING"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.GetString(a), "BUILDING");
  ASSERT_TRUE(dict.Lookup("MACHINERY").ok());
  EXPECT_EQ(*dict.Lookup("MACHINERY"), b);
  EXPECT_TRUE(dict.Lookup("MISSING").status().IsNotFound());
}

TEST(Dictionary, CodesAreDense) {
  StringDictionary dict;
  for (int i = 0; i < 10; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    EXPECT_EQ(dict.GetOrInsert(name), i);
  }
}

TEST(Table, AddAndGetColumns) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column::FromVector<int32_t>("a", {1, 2})).ok());
  ASSERT_TRUE(table.AddColumn(Column::FromVector<int64_t>("b", {3, 4})).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 2u);
  ASSERT_TRUE(table.GetColumn("b").ok());
  EXPECT_EQ((*table.GetColumn("b"))->type(), ElementType::kInt64);
  EXPECT_TRUE(table.GetColumn("missing").status().IsNotFound());
  EXPECT_EQ(table.TotalBytes(), 2 * 4 + 2 * 8u);
}

TEST(Table, RejectsLengthMismatch) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column::FromVector<int32_t>("a", {1, 2})).ok());
  EXPECT_TRUE(table.AddColumn(Column::FromVector<int32_t>("b", {1}))
                  .IsInvalidArgument());
}

TEST(Table, RejectsDuplicateName) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column::FromVector<int32_t>("a", {1})).ok());
  EXPECT_TRUE(
      table.AddColumn(Column::FromVector<int32_t>("a", {2})).IsAlreadyExists());
}

TEST(Table, RejectsNullColumn) {
  Table table("t");
  EXPECT_TRUE(table.AddColumn(nullptr).IsInvalidArgument());
}

TEST(Table, DictionaryPerColumn) {
  Table table("t");
  StringDictionary* d1 = table.GetDictionary("flag");
  StringDictionary* d2 = table.GetDictionary("status");
  EXPECT_NE(d1, d2);
  EXPECT_EQ(table.GetDictionary("flag"), d1) << "stable across calls";
  EXPECT_EQ(table.FindDictionary("flag"), d1);
  EXPECT_EQ(table.FindDictionary("nope"), nullptr);
}

TEST(Catalog, AddGetList) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(std::make_shared<Table>("a")).ok());
  ASSERT_TRUE(catalog.AddTable(std::make_shared<Table>("b")).ok());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.GetTable("a").ok());
  EXPECT_TRUE(catalog.GetTable("c").status().IsNotFound());
  EXPECT_TRUE(
      catalog.AddTable(std::make_shared<Table>("a")).IsAlreadyExists());
  EXPECT_EQ(catalog.TableNames().size(), 2u);
}

}  // namespace
}  // namespace adamant
