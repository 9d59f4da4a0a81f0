// CRC32-C (Castagnoli) used to checksum pages and log blocks. Extend runs
// one of two bit-identical kernels, chosen once per process from CPUID: a
// 3-way interleaved SSE4.2 `crc32` kernel on x86-64 CPUs that have it, and
// a portable slicing-by-8 table kernel everywhere else. There is no build
// flag or knob; the choice is safe to make during static initialisation.
// Masked variant for values stored alongside the data they protect
// (RocksDB idiom).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace socrates {
namespace crc32c {

/// Returns crc32c of data[0,n) extended from `init_crc`.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// crc32c of data[0,n).
inline uint32_t Value(const char* data, size_t n) {
  return Extend(0, data, n);
}

inline constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Mask a crc before storing it next to the protected bytes, so that the
/// crc of a buffer containing embedded crcs is not trivially fixated.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

namespace internal {

/// One implementation of Extend, exposed so tests can check each kernel
/// the host can run, not only the one the dispatcher picked.
struct Kernel {
  const char* name;
  uint32_t (*extend)(uint32_t init_crc, const char* data, size_t n);
};

/// Kernels this CPU can run, portable first; Extend uses the last one.
std::vector<Kernel> AvailableKernels();

}  // namespace internal

}  // namespace crc32c
}  // namespace socrates
