#include "common/aligned_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/bit_util.h"
#include "common/logging.h"

namespace adamant {

AlignedBuffer::~AlignedBuffer() { Reset(); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

AlignedBuffer AlignedBuffer::Uninitialized(size_t size) {
  AlignedBuffer buffer;
  if (size > 0) {
    buffer.capacity_ = bit_util::RoundUp(size, kAlignment);
    buffer.data_ = Allocate(buffer.capacity_);
    buffer.size_ = size;
  }
  return buffer;
}

void AlignedBuffer::Resize(size_t new_size) {
  if (new_size > capacity_) {
    Reallocate(new_size);
  } else if (new_size > size_) {
    std::memset(data_ + size_, 0, new_size - size_);
  }
  size_ = new_size;
}

void AlignedBuffer::Append(const void* bytes, size_t n) {
  if (size_ + n > capacity_) Reallocate(std::max(size_ + n, 2 * capacity_));
  std::memcpy(data_ + size_, bytes, n);
  size_ += n;
}

uint8_t* AlignedBuffer::Allocate(size_t capacity) {
  void* fresh = std::aligned_alloc(kAlignment, capacity);
  ADAMANT_CHECK(fresh != nullptr) << "aligned_alloc of " << capacity
                                  << " bytes failed";
  return static_cast<uint8_t*>(fresh);
}

void AlignedBuffer::Reallocate(size_t min_capacity) {
  const size_t new_capacity = bit_util::RoundUp(min_capacity, kAlignment);
  uint8_t* bytes = Allocate(new_capacity);
  if (data_ != nullptr) {
    std::memcpy(bytes, data_, size_);
    std::free(data_);
  }
  std::memset(bytes + size_, 0, new_capacity - size_);
  data_ = bytes;
  capacity_ = new_capacity;
}

void AlignedBuffer::Reset() {
  if (data_ != nullptr) {
    std::free(data_);
    data_ = nullptr;
  }
  size_ = 0;
  capacity_ = 0;
}

}  // namespace adamant
