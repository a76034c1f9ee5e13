#ifndef ADAMANT_STORAGE_COLUMN_H_
#define ADAMANT_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "storage/types.h"

namespace adamant {

/// A typed, densely-packed column. Columns are the unit of data the runtime
/// ships to co-processors: the transfer hub chunks a column's raw bytes and
/// calls place_data on the target device. Storage is 64-byte aligned so
/// chunk boundaries stay SIMD/DMA friendly.
class Column {
 public:
  Column(std::string name, ElementType type)
      : name_(std::move(name)), type_(type) {}

  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  const std::string& name() const { return name_; }
  ElementType type() const { return type_; }
  size_t length() const { return length_; }
  size_t byte_size() const { return length_ * ElementSize(type_); }

  const uint8_t* raw_data() const { return data_.data(); }
  uint8_t* mutable_raw_data() { return data_.data(); }

  /// Grows to `n` elements (new elements zeroed).
  void Resize(size_t n) {
    data_.Resize(n * ElementSize(type_));
    length_ = n;
  }

  template <typename T>
  const T* data() const {
    ADAMANT_DCHECK(ElementTypeOf<T>::value == type_)
        << "column " << name_ << " is " << ElementTypeName(type_);
    return data_.data_as<T>();
  }

  template <typename T>
  T* mutable_data() {
    ADAMANT_DCHECK(ElementTypeOf<T>::value == type_)
        << "column " << name_ << " is " << ElementTypeName(type_);
    return data_.data_as<T>();
  }

  template <typename T>
  T Value(size_t i) const {
    ADAMANT_DCHECK(i < length_);
    return data<T>()[i];
  }

  /// Appends one element in amortized O(1) (the capacity grows
  /// geometrically; Resize and FromVector allocate exactly).
  template <typename T>
  void Append(T value) {
    ADAMANT_DCHECK(ElementTypeOf<T>::value == type_)
        << "column " << name_ << " is " << ElementTypeName(type_);
    data_.Append(&value, sizeof(T));
    ++length_;
  }

  /// Builds a column from a vector in one shot.
  template <typename T>
  static std::shared_ptr<Column> FromVector(std::string name,
                                            const std::vector<T>& values) {
    auto col = std::make_shared<Column>(std::move(name),
                                        ElementTypeOf<T>::value);
    col->Resize(values.size());
    std::copy(values.begin(), values.end(), col->template mutable_data<T>());
    return col;
  }

 private:
  std::string name_;
  ElementType type_;
  AlignedBuffer data_;
  size_t length_ = 0;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace adamant

#endif  // ADAMANT_STORAGE_COLUMN_H_
