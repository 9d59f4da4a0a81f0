#include "xlog/log_block.h"

#include "common/coding.h"
#include "common/compress.h"
#include "common/crc32c.h"

namespace socrates {
namespace xlog {

namespace {

// 'S' 'L' 'B' + layout generation. The magic guards against a consumer
// parsing an arbitrary byte range (repair reads, disk garbage) as a frame.
constexpr uint32_t kFrameMagic = 0x31424c53;  // "SLB1"

// [magic u32][version u16][flags u8][start_lsn u64][raw_len u32]
// [stored_len u32][npart u32]
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 8 + 4 + 4 + 4;

}  // namespace

std::string EncodeBlockFrame(const LogBlock& block, bool compress) {
  std::string stored;
  if (compress && !block.payload().empty()) {
    compress::Compress(Slice(block.payload()), &stored);
    // Incompressible: ship raw, flag stays clear.
    if (stored.size() >= block.payload().size()) stored.clear();
  }
  return EncodeStoredBlockFrame(block, Slice(stored));
}

std::string EncodeStoredBlockFrame(const LogBlock& block,
                                   Slice compressed) {
  std::string frame;
  const uint8_t flags = compressed.empty() ? 0 : kBlockFrameFlagCompressed;
  const Slice body =
      compressed.empty() ? Slice(block.payload()) : compressed;
  frame.reserve(kHeaderBytes + 4 * block.partitions().size() +
                body.size() + 4);
  PutFixed32(&frame, kFrameMagic);
  PutFixed16(&frame, kBlockFrameVersion);
  frame.push_back(static_cast<char>(flags));
  PutFixed64(&frame, block.start_lsn);
  PutFixed32(&frame, static_cast<uint32_t>(block.payload().size()));
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed32(&frame, static_cast<uint32_t>(block.partitions().size()));
  for (PartitionId p : block.partitions()) PutFixed32(&frame, p);
  frame.append(body.data(), body.size());
  PutFixed32(&frame,
             crc32c::Mask(crc32c::Value(body.data(), body.size())));
  return frame;
}

Status DecodeBlockFrame(Slice frame, LogBlock* out) {
  if (frame.size() < kHeaderBytes + 4) {
    return Status::Corruption("block frame truncated");
  }
  const char* p = frame.data();
  if (DecodeFixed32(p) != kFrameMagic) {
    return Status::Corruption("block frame bad magic");
  }
  if (DecodeFixed16(p + 4) != kBlockFrameVersion) {
    return Status::NotSupported("block frame version not supported");
  }
  uint8_t flags = static_cast<uint8_t>(p[6]);
  if ((flags & ~kBlockFrameFlagCompressed) != 0) {
    return Status::Corruption("block frame unknown flags");
  }
  Lsn start_lsn = DecodeFixed64(p + 7);
  uint32_t raw_len = DecodeFixed32(p + 15);
  uint32_t stored_len = DecodeFixed32(p + 19);
  uint32_t npart = DecodeFixed32(p + 23);
  uint64_t need = kHeaderBytes + 4ull * npart + stored_len + 4;
  if (frame.size() != need) {
    return Status::Corruption("block frame length mismatch");
  }
  const char* parts = p + kHeaderBytes;
  const char* body = parts + 4ull * npart;
  uint32_t crc = DecodeFixed32(body + stored_len);
  if (crc32c::Unmask(crc) != crc32c::Value(body, stored_len)) {
    return Status::Corruption("block frame checksum mismatch");
  }
  std::set<PartitionId> partitions;
  for (uint32_t i = 0; i < npart; i++) {
    partitions.insert(DecodeFixed32(parts + 4ull * i));
  }
  std::string payload;
  if (flags & kBlockFrameFlagCompressed) {
    Status s = compress::Decompress(Slice(body, stored_len), raw_len,
                                    &payload);
    if (!s.ok()) return s;
  } else {
    if (stored_len != raw_len) {
      return Status::Corruption("block frame raw length mismatch");
    }
    payload.assign(body, stored_len);
  }
  *out = LogBlock::Make(start_lsn, std::move(payload),
                        std::move(partitions));
  return Status::OK();
}

}  // namespace xlog
}  // namespace socrates
