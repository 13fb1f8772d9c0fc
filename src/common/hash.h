// 64-bit FNV-1a, the one hash behind the sealed-file checksums (.imgrf and
// corpus checkpoints), the graph fingerprint and the fault-plan site keys.
// Chained calls (pass the previous digest as `h`) hash the concatenation,
// so a digest can be fed piecewise without buffering.
#ifndef IMBENCH_COMMON_HASH_H_
#define IMBENCH_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace imbench {

inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace imbench

#endif  // IMBENCH_COMMON_HASH_H_
