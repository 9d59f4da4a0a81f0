#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define SOCRATES_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace socrates {
namespace crc32c {

namespace {

// CRC32-C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

using Table = std::array<uint32_t, 256>;

// kSlice[0] is the byte-at-a-time table; kSlice[k][b] is the crc state
// after byte b followed by k zero bytes, which lets slicing-by-8 fold
// eight input bytes with eight independent lookups.
constexpr std::array<Table, 8> MakeSliceTables() {
  std::array<Table, 8> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; k++) {
    for (size_t i = 0; i < 256; i++) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr std::array<Table, 8> kSlice = MakeSliceTables();

inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = ~init_crc;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = crc ^ LoadLE32(p);
    uint32_t hi = LoadLE32(p + 4);
    crc = kSlice[7][lo & 0xff] ^ kSlice[6][(lo >> 8) & 0xff] ^
          kSlice[5][(lo >> 16) & 0xff] ^ kSlice[4][lo >> 24] ^
          kSlice[3][hi & 0xff] ^ kSlice[2][(hi >> 8) & 0xff] ^
          kSlice[1][(hi >> 16) & 0xff] ^ kSlice[0][hi >> 24];
  }
  for (; n > 0; n--, p++) {
    crc = kSlice[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef SOCRATES_CRC32C_SSE42

// The SSE4.2 kernel runs three independent crc32 streams over adjacent
// kStride-byte lanes, hiding the instruction's 3-cycle latency, then
// merges them: crc(A|B) = Shift(crc(A)) ^ crc_from_zero(B), where Shift
// appends kStride zero bytes to a crc state.
constexpr size_t kStride = 256;

// kShift[k][b] = Shift(b << 8k). Shift is linear over GF(2), so it is
// built from the images of the 32 single-bit states.
constexpr std::array<Table, 4> MakeShiftTables() {
  std::array<uint32_t, 32> bit{};
  for (int i = 0; i < 32; i++) {
    uint32_t crc = 1u << i;
    for (size_t z = 0; z < kStride; z++) {
      crc = kSlice[0][crc & 0xff] ^ (crc >> 8);
    }
    bit[i] = crc;
  }
  std::array<Table, 4> t{};
  for (int k = 0; k < 4; k++) {
    for (uint32_t b = 0; b < 256; b++) {
      for (int j = 0; j < 8; j++) {
        if (b & (1u << j)) t[k][b] ^= bit[8 * k + j];
      }
    }
  }
  return t;
}

constexpr std::array<Table, 4> kShift = MakeShiftTables();

inline uint32_t Shift(uint32_t crc) {
  return kShift[0][crc & 0xff] ^ kShift[1][(crc >> 8) & 0xff] ^
         kShift[2][(crc >> 16) & 0xff] ^ kShift[3][crc >> 24];
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const char* p = data;
  uint64_t crc = ~init_crc;
  for (; n >= 3 * kStride; n -= 3 * kStride, p += 3 * kStride) {
    uint64_t a = crc, b = 0, c = 0;
    for (size_t i = 0; i < kStride; i += 8) {
      a = _mm_crc32_u64(a, Load64(p + i));
      b = _mm_crc32_u64(b, Load64(p + kStride + i));
      c = _mm_crc32_u64(c, Load64(p + 2 * kStride + i));
    }
    crc = Shift(Shift(static_cast<uint32_t>(a)) ^ static_cast<uint32_t>(b)) ^
          static_cast<uint32_t>(c);
  }
  for (; n >= 8; n -= 8, p += 8) {
    crc = _mm_crc32_u64(crc, Load64(p));
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; n--, p++) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return ~crc32;
}

// __builtin_cpu_init makes the query valid even when the first Extend
// call comes from another translation unit's static initialiser.
bool HasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#endif  // SOCRATES_CRC32C_SSE42

}  // namespace

namespace internal {

std::vector<Kernel> AvailableKernels() {
  std::vector<Kernel> kernels = {{"portable", ExtendPortable}};
#ifdef SOCRATES_CRC32C_SSE42
  if (HasSse42()) kernels.push_back({"sse4.2", ExtendSse42});
#endif
  return kernels;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Resolved on first use, so a call from any static initialiser is safe.
  static const auto kExtend = internal::AvailableKernels().back().extend;
  return kExtend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace socrates
