#ifndef ADAMANT_COMMON_ALIGNED_BUFFER_H_
#define ADAMANT_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>

namespace adamant {

/// Owning, 64-byte-aligned, resizable byte buffer. Used as the backing store
/// for host columns and for simulated device memory. Host columns are built
/// with Resize and Append, which zero every byte they expose; device memory
/// comes from Uninitialized, which writes nothing, as a device allocator
/// (cudaMalloc, clCreateBuffer) hands out whatever the memory held.
/// Move-only: device buffers alias regions of these allocations, so implicit
/// copies would be both expensive and a source of stale-alias bugs.
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t size) { Resize(size); }
  ~AlignedBuffer();

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  /// A buffer of `size` bytes whose content is unspecified: nothing is
  /// written. Its capacity is `size` rounded up to the alignment.
  static AlignedBuffer Uninitialized(size_t size);

  /// Grows or shrinks to `new_size` bytes. Existing content up to
  /// min(old, new) size is preserved; newly exposed bytes are zeroed. A
  /// resize past the capacity allocates exactly `new_size` bytes (rounded
  /// up to the alignment), so one-shot builds stay exact.
  void Resize(size_t new_size);

  /// Appends `n` bytes. Capacity at least doubles whenever it runs out, so
  /// building a buffer by repeated appends costs amortized O(1) per byte.
  void Append(const void* bytes, size_t n);

  /// Releases the allocation.
  void Reset();

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  template <typename T>
  T* data_as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data_as() const {
    return reinterpret_cast<const T*>(data_);
  }

 private:
  /// Allocates `capacity` bytes (a multiple of the alignment), unwritten.
  static uint8_t* Allocate(size_t capacity);
  /// Moves the content to a fresh allocation of at least `min_capacity`
  /// bytes; everything past size() is zeroed.
  void Reallocate(size_t min_capacity);

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace adamant

#endif  // ADAMANT_COMMON_ALIGNED_BUFFER_H_
