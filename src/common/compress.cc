#include "common/compress.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace socrates {
namespace compress {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// Matches may not start within the last kMinMatch+1 input bytes (the
// classic LZ4 end-of-block rule keeps the copy loops overrun-free).
constexpr size_t kTailLiterals = kMinMatch + 1;

inline uint32_t Hash4(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return (v * 2654435761u) >> 19;  // 13-bit table
}

// The match table, reused across calls (one per thread) instead of
// allocating and zeroing 32 KiB per block. A call stores `gen + pos + 1`
// and treats any value <= `gen` as empty, then advances `gen` past every
// value it stored, so each call starts from a logically empty table —
// the output is exactly that of a fresh zeroed table.
struct MatchTable {
  std::vector<uint32_t> slots = std::vector<uint32_t>(1 << 13, 0);
  uint32_t gen = 0;
};

void PutRunLen(std::string* out, size_t len) {
  while (len >= 255) {
    out->push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void EmitSequence(std::string* out, const char* lit, size_t lit_len,
                  size_t offset, size_t match_len) {
  size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  uint8_t token =
      static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4 |
                           (match_code < 15 ? match_code : 15));
  out->push_back(static_cast<char>(token));
  if (lit_len >= 15) PutRunLen(out, lit_len - 15);
  out->append(lit, lit_len);
  if (match_len == 0) return;  // terminal sequence: no match part
  out->push_back(static_cast<char>(offset & 0xff));
  out->push_back(static_cast<char>(offset >> 8));
  if (match_code >= 15) PutRunLen(out, match_code - 15);
}

}  // namespace

size_t Compress(Slice input, std::string* out) {
  size_t out_start = out->size();
  const char* base = input.data();
  size_t n = input.size();
  if (n < kMinMatch + kTailLiterals) {
    EmitSequence(out, base, n, 0, 0);
    return out->size() - out_start;
  }
  static thread_local MatchTable match_table;
  if (n > UINT32_MAX - match_table.gen) {
    std::fill(match_table.slots.begin(), match_table.slots.end(), 0);
    match_table.gen = 0;
  }
  const uint32_t gen = match_table.gen;
  uint32_t* table = match_table.slots.data();
  size_t pos = 0;
  size_t lit_start = 0;
  size_t match_limit = n - kTailLiterals;
  while (pos + kMinMatch <= match_limit) {
    uint32_t h = Hash4(base + pos);
    uint32_t cand = table[h];
    table[h] = gen + static_cast<uint32_t>(pos + 1);
    if (cand > gen) {
      size_t c = cand - gen - 1;
      if (pos - c <= kMaxOffset &&
          memcmp(base + c, base + pos, kMinMatch) == 0) {
        size_t len = kMinMatch;
        while (pos + len < match_limit && base[c + len] == base[pos + len]) {
          len++;
        }
        EmitSequence(out, base + lit_start, pos - lit_start, pos - c, len);
        // Seed the table inside the match so runs keep finding themselves.
        size_t end = pos + len;
        for (size_t p = pos + 1; p + kMinMatch <= end && p + 4 <= n; p += 8) {
          table[Hash4(base + p)] = gen + static_cast<uint32_t>(p + 1);
        }
        pos = end;
        lit_start = end;
        continue;
      }
    }
    pos++;
  }
  match_table.gen = gen + static_cast<uint32_t>(n);
  EmitSequence(out, base + lit_start, n - lit_start, 0, 0);
  return out->size() - out_start;
}

namespace {

bool GetRunLen(const char* p, const char* end, size_t* pos, size_t* len) {
  while (true) {
    if (p + *pos >= end) return false;
    uint8_t b = static_cast<uint8_t>(p[*pos]);
    (*pos)++;
    *len += b;
    if (b != 255) return true;
  }
}

}  // namespace

Status Decompress(Slice input, size_t raw_len, std::string* out) {
  out->clear();
  // No input byte expands to more than 255 output bytes (a run-length
  // extension byte), so a larger raw_len is forged: reject it before
  // reserving.
  if (raw_len > 255 * input.size() + 64) {
    return Status::Corruption("compressed block: implausible length");
  }
  out->reserve(raw_len);
  const char* p = input.data();
  const char* end = p + input.size();
  size_t pos = 0;
  while (pos < input.size()) {
    uint8_t token = static_cast<uint8_t>(p[pos++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !GetRunLen(p, end, &pos, &lit_len)) {
      return Status::Corruption("compressed block: bad literal run");
    }
    if (pos + lit_len > input.size()) {
      return Status::Corruption("compressed block: literals overrun");
    }
    out->append(p + pos, lit_len);
    pos += lit_len;
    if (pos == input.size()) break;  // terminal sequence has no match
    if (pos + 2 > input.size()) {
      return Status::Corruption("compressed block: truncated offset");
    }
    size_t offset = static_cast<uint8_t>(p[pos]) |
                    (static_cast<size_t>(static_cast<uint8_t>(p[pos + 1]))
                     << 8);
    pos += 2;
    size_t match_len = token & 0xf;
    if (match_len == 15 && !GetRunLen(p, end, &pos, &match_len)) {
      return Status::Corruption("compressed block: bad match run");
    }
    match_len += kMinMatch;
    if (offset == 0 || offset > out->size()) {
      return Status::Corruption("compressed block: bad match offset");
    }
    if (out->size() + match_len > raw_len) {
      return Status::Corruption("compressed block: output overrun");
    }
    // Byte-wise copy: offsets < match_len replicate runs (RLE case).
    size_t src = out->size() - offset;
    for (size_t i = 0; i < match_len; i++) {
      out->push_back((*out)[src + i]);
    }
  }
  if (out->size() != raw_len) {
    return Status::Corruption("compressed block: length mismatch");
  }
  return Status::OK();
}

}  // namespace compress
}  // namespace socrates
