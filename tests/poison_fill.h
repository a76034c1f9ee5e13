#ifndef ADAMANT_TESTS_POISON_FILL_H_
#define ADAMANT_TESTS_POISON_FILL_H_

// Test helper: fills fresh and recycled device memory with the poison byte
// for one scope (SimulatedDevice::SetPoisonFill), whatever the build's
// default, so a read of memory the runtime never wrote fails a bit-identity
// check instead of reading a convenient zero.

#include <cstdint>
#include <cstring>

#include "device/sim_device.h"

namespace adamant {

class PoisonFill {
 public:
  PoisonFill() : was_on_(SimulatedDevice::poison_fill()) {
    SimulatedDevice::SetPoisonFill(true);
  }
  ~PoisonFill() { SimulatedDevice::SetPoisonFill(was_on_); }
  PoisonFill(const PoisonFill&) = delete;
  PoisonFill& operator=(const PoisonFill&) = delete;

  /// What an int32 read of never-written device memory returns.
  static int32_t Word() {
    int32_t word;
    std::memset(&word, SimulatedDevice::kPoisonByte, sizeof(word));
    return word;
  }

 private:
  bool was_on_;
};

}  // namespace adamant

#endif  // ADAMANT_TESTS_POISON_FILL_H_
