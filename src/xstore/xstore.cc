#include "xstore/xstore.h"

#include <algorithm>
#include <cstring>

namespace socrates {
namespace xstore {

sim::Task<Status> XStore::Write(const std::string& blob, uint64_t offset,
                                Slice data) {
  co_await sim::Delay(sim_, profile_.write.Sample(rng_));
  // Transfer time: 1 MB/s == 1 byte/us. Models XStore's throughput limits
  // (the reason HADR's backup egress throttles its log rate, Table 5).
  co_await sim::Delay(
      sim_, static_cast<SimTime>(static_cast<double>(data.size()) /
                                 bandwidth_mb_s_));
  if (!available()) co_return Status::Unavailable("xstore outage");
  stored_bytes_ += data.size();
  ApplyWrite(&blobs_[blob], offset,
             std::make_shared<const SegmentData>(data, &retained_bytes_));
  stats_.writes++;
  stats_.bytes_written += data.size();
  co_return Status::OK();
}

sim::Task<Status> XStore::Read(const std::string& blob, uint64_t offset,
                               uint64_t len, std::string* out) {
  co_await sim::Delay(sim_, profile_.read.Sample(rng_));
  co_await sim::Delay(sim_, static_cast<SimTime>(static_cast<double>(len) /
                                                 bandwidth_mb_s_));
  if (!available()) co_return Status::Unavailable("xstore outage");
  auto it = blobs_.find(blob);
  if (it == blobs_.end()) co_return Status::NotFound("blob " + blob);
  out->assign(len, '\0');
  ReadInto(it->second, offset, len, out->data());
  stats_.reads++;
  stats_.bytes_read += len;
  co_return Status::OK();
}

sim::Task<Result<SnapshotId>> XStore::Snapshot(const std::string& blob) {
  // Constant-time: metadata only, no dependence on blob size.
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (!available()) {
    co_return Result<SnapshotId>(Status::Unavailable("xstore outage"));
  }
  auto it = blobs_.find(blob);
  if (it == blobs_.end()) {
    co_return Result<SnapshotId>(Status::NotFound("blob " + blob));
  }
  SnapshotId id = next_snapshot_++;
  snapshots_[id] = it->second;  // extent table copy; segments are shared
  co_return Result<SnapshotId>(id);
}

sim::Task<Status> XStore::Restore(SnapshotId snap, const std::string& dst) {
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (!available()) co_return Status::Unavailable("xstore outage");
  auto it = snapshots_.find(snap);
  if (it == snapshots_.end()) {
    co_return Status::NotFound("snapshot " + std::to_string(snap));
  }
  blobs_[dst] = it->second;
  co_return Status::OK();
}

sim::Task<Status> XStore::Delete(const std::string& blob) {
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (!available()) co_return Status::Unavailable("xstore outage");
  blobs_.erase(blob);
  co_return Status::OK();
}

uint64_t XStore::BlobSize(const std::string& blob) const {
  auto it = blobs_.find(blob);
  return it == blobs_.end() ? 0 : it->second.size;
}

std::vector<std::string> XStore::List(const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& [name, b] : blobs_) {
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string XStore::ReadRaw(const std::string& blob, uint64_t offset,
                            uint64_t len) const {
  std::string out(len, '\0');
  auto it = blobs_.find(blob);
  if (it != blobs_.end()) ReadInto(it->second, offset, len, out.data());
  return out;
}

void XStore::ApplyWrite(Blob* b, uint64_t offset, Segment segment) {
  const uint64_t length = segment->bytes.size();
  if (length == 0) return;
  const uint64_t end = offset + length;
  ExtentMap& m = b->extents;

  // Trim a predecessor extent that overlaps [offset, end).
  auto it = m.lower_bound(offset);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    uint64_t pstart = prev->first;
    uint64_t pend = pstart + prev->second.length;
    if (pend > offset) {
      if (pend > end) {
        // The old extent sticks out past our write; keep its tail (a
        // second reference to the same segment).
        Extent tail = prev->second;
        tail.seg_offset += end - pstart;
        tail.length = pend - end;
        m[end] = std::move(tail);
      }
      prev->second.length = offset - pstart;
      if (prev->second.length == 0) m.erase(prev);
    }
  }

  // Remove / trim extents starting inside [offset, end). Erasing an
  // extent drops its segment reference; the last one frees the bytes.
  it = m.lower_bound(offset);
  while (it != m.end() && it->first < end) {
    uint64_t estart = it->first;
    uint64_t eend = estart + it->second.length;
    if (eend <= end) {
      it = m.erase(it);
    } else {
      Extent tail = std::move(it->second);
      tail.seg_offset += end - estart;
      tail.length = eend - end;
      m.erase(it);
      m[end] = std::move(tail);
      break;
    }
  }

  m[offset] = Extent{std::move(segment), 0, length};
  b->size = std::max(b->size, end);
}

void XStore::ReadInto(const Blob& b, uint64_t offset, uint64_t len,
                      char* out) const {
  const uint64_t end = offset + len;
  const ExtentMap& m = b.extents;
  auto it = m.upper_bound(offset);
  if (it != m.begin()) --it;
  for (; it != m.end() && it->first < end; ++it) {
    uint64_t estart = it->first;
    uint64_t eend = estart + it->second.length;
    uint64_t from = std::max(estart, offset);
    uint64_t to = std::min(eend, end);
    if (from >= to) continue;
    memcpy(out + (from - offset),
           it->second.segment->bytes.data() + it->second.seg_offset +
               (from - estart),
           to - from);
  }
}

}  // namespace xstore
}  // namespace socrates
